package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// derive returns the seed of one generator or partition request: a
// splitmix64 mix of the benchmark seed with a label and an index, so every
// input of a run follows from --seed alone.
func derive(base uint64, label string, i int) uint64 {
	x := base ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(label) {
		x = mix(x ^ uint64(c))
	}
	return mix(x ^ uint64(i)*0xbf58476d1ce4e5b9)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// cpuTime returns the CPU time (user + system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLive reads the heap the garbage collector found live at the end of
// its last cycle.
func heapLive() uint64 { return readMetric("/gc/heap/live:bytes") }

// heapAllocated reads the cumulative bytes allocated on the heap.
func heapAllocated() uint64 { return readMetric("/gc/heap/allocs:bytes") }

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap every few milliseconds until stopped and
// keeps the largest value seen: the peak working set of the window, free of
// the garbage that waits for the next cycle.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), peak: heapLive()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := heapLive(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak in bytes.
func (h *heapPeak) done() uint64 {
	close(h.stop)
	h.wg.Wait()
	if v := heapLive(); v > h.peak {
		h.peak = v
	}
	return h.peak
}
