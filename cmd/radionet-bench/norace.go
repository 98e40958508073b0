//go:build !race

package main

// raceBuild reports a race-detector build (see race.go).
const raceBuild = false
