package telemetry

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// ThreadCPU returns the CPU time the calling OS thread has used
// (CLOCK_THREAD_CPUTIME_ID), or 0 if the clock cannot be read. Only a
// difference of two readings on one thread means anything: lock the
// goroutine to its thread around the span (CPUCounter.Time does).
func ThreadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// ProcessCPU returns the user plus system CPU time of the whole process
// (getrusage RUSAGE_SELF), or 0 if it cannot be read.
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
