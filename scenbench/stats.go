package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// gmean is the geometric mean of positive values.
func gmean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// runtimeSample reads the runtime counters the benchmark reports: the
// live heap as of the last GC, completed GC cycles, and cumulative heap
// allocation.
type runtimeSample struct {
	liveBytes  uint64
	gcCycles   uint64
	allocBytes uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/live:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		liveBytes:  s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

// heapPeak records the live heap at the end of every GC cycle of a
// timed phase, polled from a goroutine. The reported peak is the 90th
// percentile of those values: the maximum alone depends on which cycle
// happened to coincide with the largest transient, and moves from run to
// run more than the program does.
type heapPeak struct {
	live []float64 // MiB, one per GC cycle
	done chan struct{}
	wg   sync.WaitGroup
}

// start begins a phase from a collected heap, so the first value is the
// resident state.
func (h *heapPeak) start() {
	runtime.GC()
	first := readRuntime()
	h.live = []float64{float64(first.liveBytes) / (1 << 20)}
	h.done = make(chan struct{})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		cycles := first.gcCycles
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				if s := readRuntime(); s.gcCycles != cycles {
					cycles = s.gcCycles
					h.live = append(h.live, float64(s.liveBytes)/(1<<20))
				}
			}
		}
	}()
}

// stop ends the phase and waits for the poller to exit.
func (h *heapPeak) stop() {
	close(h.done)
	h.wg.Wait()
}

func (h *heapPeak) peakMiB() float64 { return quantile(h.live, 0.9) }
