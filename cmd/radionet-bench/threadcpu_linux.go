//go:build linux

package main

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// stepClock reads the CPU time, in ns, that the calling OS thread has used.
// Time the thread spends waiting for a CPU (another process running on it)
// does not count, so a twin gate window reads the step loop's own cost.
// clock_gettime brings the running thread's count up to date; getrusage's
// thread figure can lag it by a scheduler tick, a few percent of a window.
func stepClock() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return wallClock()
	}
	return ts.Nano()
}
