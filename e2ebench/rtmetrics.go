package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Go runtime metrics the benchmark reads around a measured window.
const (
	mLiveHeap   = "/gc/heap/live:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mSchedLat   = "/sched/latencies:seconds"
)

// rtSnapshot is the cumulative runtime counters at one instant.
type rtSnapshot struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU       float64
	sched                 *metrics.Float64Histogram
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: mAllocObjs}, {Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mSchedLat}}
	metrics.Read(s)
	out := rtSnapshot{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[4].Value.Float64Histogram()
	}
	return out
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	allocObjs, allocBytes uint64
	gcCPUFrac             float64
	schedP99us            float64
}

func runtimeDelta(a, b rtSnapshot) rtDelta {
	d := rtDelta{allocObjs: b.allocObjs - a.allocObjs, allocBytes: b.allocBytes - a.allocBytes}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	d.schedP99us = math.NaN()
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		d.schedP99us = histQuantile(a.sched, b.sched, 0.99) * 1e6
	}
	return d
}

// histQuantile returns the q-quantile of the counts b−a, read as the
// upper bound of the bucket holding that rank.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapSampler polls the live heap until stopped. The live heap changes
// only when a collection ends, so the samples weight each cycle's live
// heap by how long it stood.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), samples: make([]float64, 0, 1<<13)}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mLiveHeap}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			}
		}
	}()
	return h
}

// heapPeakQuantile is the share of the measured phase the reported peak
// heap covers: the live heap stood at or below it 95% of the time, so a
// single collection that ends at an unlucky moment does not set it.
const heapPeakQuantile = 0.95

// finish stops the sampler, waits for it and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return pick(sortedCopy(h.samples), heapPeakQuantile).Value / (1 << 20)
}

// allocsNow returns the cumulative heap allocation count, for probes
// that report allocations per operation.
func allocsNow() uint64 {
	s := []metrics.Sample{{Name: mAllocObjs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
