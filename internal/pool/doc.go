// Package pool provides the bounded worker pool shared by the public
// multi-job executor (rbcast.RunSweepJobs) and the experiment driver. Work
// items are plain indices: the caller pre-allocates a results slice and
// fn(i) writes element i, which keeps result ordering deterministic
// regardless of scheduling and needs no synchronization beyond the pool's
// own join.
package pool
