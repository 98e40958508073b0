//go:build !linux

package main

// stepClock reads the wall clock: per-thread CPU time is read only on Linux
// (threadcpu_linux.go).
func stepClock() int64 { return wallClock() }
