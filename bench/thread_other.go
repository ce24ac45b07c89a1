//go:build !linux

package main

import "time"

var processStart = time.Now()

// threadTime falls back to wall time where no per-thread CPU clock is
// wired up; the host probe then also counts time spent waiting to run.
func threadTime() time.Duration { return time.Since(processStart) }
