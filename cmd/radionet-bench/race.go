//go:build race

package main

// raceBuild reports a race-detector build. The detector slows every memory
// access, so it inflates the ns/op of a row that makes more accesses per
// step than its twin (the packed decode does).
const raceBuild = true
