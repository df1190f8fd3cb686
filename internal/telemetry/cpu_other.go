//go:build !linux

package telemetry

import "time"

// ThreadCPU returns 0: this platform's thread CPU clock is not read, so
// CPU counters charged through CPUCounter.Time stay at zero.
func ThreadCPU() time.Duration { return 0 }

// ProcessCPU returns 0: the process's CPU time is read only on Linux.
func ProcessCPU() time.Duration { return 0 }
