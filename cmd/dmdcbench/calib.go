package main

import (
	"runtime"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: a neighbour's load slows
// every program on them by 10–30% for minutes at a time, so raw timings of
// the same commit spread by ±15% across runs. Every time the benchmark
// reports is therefore scaled by the speed of a reference kernel measured
// just before and after the work it times: a fixed mix of integer work,
// unpredictable branches and cache-missing loads that lives in this
// package, so it is identical on the commits being compared. A reported
// millisecond is a millisecond on a machine where the kernel takes
// refNominal; the raw times stay in the -out record.

// refNominal is the kernel's time on an idle Intel Xeon at 2.0 GHz, the
// machine the committed baseline was measured on.
const refNominal = 10 * time.Millisecond

const (
	refIters = 2_000_000
	refReps  = 3
	refWords = 1 << 17 // 1 MiB per kernel copy
)

var (
	// Allocated at start-up, outside every measured allocation count.
	refBufs = [clients][]uint64{make([]uint64, refWords), make([]uint64, refWords)}
	refSink [clients]uint64
)

// refKernel runs the reference work on buffer i.
func refKernel(i int) {
	buf := refBufs[i]
	x := uint64(88172645463325252)
	var acc uint64
	for n := 0; n < refIters; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		if x&3 == 0 {
			buf[j] += x
		} else {
			acc += buf[j] ^ x>>3
		}
	}
	refSink[i] += acc
}

// calibrate times the kernel on as many cores as the timed work uses and
// returns the median over refReps of the copies' mean time. One core runs
// the kernel on the calling goroutine, where single-threaded work runs:
// when a neighbour slows only one of the two cores, a copy on each would
// report a slowdown the work never saw. A garbage collection first keeps
// the previous pass's leftovers from slowing the kernel.
func calibrate(cores int) time.Duration {
	runtime.GC()
	times := make([]float64, refReps)
	for r := range times {
		if cores == 1 {
			t0 := time.Now()
			refKernel(0)
			times[r] = float64(time.Since(t0))
			continue
		}
		var wg sync.WaitGroup
		var sum [clients]time.Duration
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				refKernel(i)
				sum[i] = time.Since(t0)
			}(i)
		}
		wg.Wait()
		var total time.Duration
		for _, d := range sum {
			total += d
		}
		times[r] = float64(total) / clients
	}
	return time.Duration(quantile(sorted(times), 0.5))
}

// speedFactor converts times measured between two calibrations to the
// reference speed.
func speedFactor(before, after time.Duration) float64 {
	return float64(refNominal) / (float64(before+after) / 2)
}
