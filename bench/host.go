package main

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"strconv"
	"time"
)

const (
	// probeEvery is the host probe's sampling period.
	probeEvery = 50 * time.Millisecond
	// probeNominal is the probe's median sample, in seconds, on the
	// 2-core Xeon container the ledger was measured on, when its host was
	// quiet.
	// Timing metrics are reported as they would read on a host of that
	// speed.
	probeNominal = 320e-6
)

// hostSpeed is the host's speed relative to nominal given a probe median:
// below 1 the host ran slower, and measured times are scaled down by it
// (rates up) to read at nominal speed.
func hostSpeed(probe float64) float64 { return probeNominal / probe }

// probeHost samples how fast the host executes a fixed reference kernel
// until the returned function is called, which stops the probe and
// returns the median sample in seconds.
//
// The host is shared, and its speed per instruction moves by a third
// within seconds (a fixed loop's CPU time moves with its wall time, so
// this is contention, not descheduling). The probe runs on its own locked
// OS thread and is timed by that thread's CPU clock, so waiting for a CPU
// behind the workload does not count; the kernel allocates nothing, so
// garbage-collector assists do not count either. What remains is the
// host's speed while the workload runs.
func probeHost() func() float64 {
	stop := make(chan struct{})
	result := make(chan float64)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newProbeKernel()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		var samples []float64
		for {
			select {
			case <-t.C:
				start := threadTime()
				k.run()
				samples = append(samples, (threadTime() - start).Seconds())
			case <-stop:
				result <- median(samples)
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-result
	}
}

// probeKernel is about a millisecond of hashing, sorting and map lookups
// over preallocated data.
type probeKernel struct {
	buf       []byte
	ints, tpl []int
	keys      []string
	m         map[string]int
	sink      int
}

func newProbeKernel() *probeKernel {
	k := &probeKernel{buf: make([]byte, 64<<10), ints: make([]int, 4096), tpl: make([]int, 4096), m: map[string]int{}}
	for i := range k.buf {
		k.buf[i] = byte(i * 7)
	}
	x := uint32(1)
	for i := range k.tpl {
		x = x*1664525 + 1013904223
		k.tpl[i] = int(x >> 8)
	}
	for i := 0; i < 1024; i++ {
		key := strconv.Itoa(i * 7919 % 10007)
		k.keys = append(k.keys, key)
		k.m[key] = i
	}
	return k
}

func (k *probeKernel) run() {
	sum := sha256.Sum256(k.buf)
	copy(k.ints, k.tpl)
	slices.Sort(k.ints)
	n := int(sum[0])
	for _, key := range k.keys {
		n += k.m[key]
	}
	k.sink += n + k.ints[len(k.ints)/2]
}
