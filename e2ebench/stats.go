package main

import (
	"math"
	"slices"
)

// Quantile is one percentile read from a sample set, with the number of
// samples behind it and how many of them lie above it.
type Quantile struct {
	Q       float64 // in (0, 1]
	Value   float64
	Samples int
	Beyond  int
}

// pick returns the q-quantile of sorted by nearest rank: the smallest
// sample with at least ceil(q·n) samples at or below it. It returns the
// sample count and the count strictly beyond the picked rank so that a
// report can say how many samples stand behind a tail percentile.
func pick(sorted []float64, q float64) Quantile {
	n := len(sorted)
	if n == 0 {
		return Quantile{Q: q, Value: math.NaN()}
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Quantile{Q: q, Value: sorted[rank-1], Samples: n, Beyond: n - rank}
}

func sortedCopy(xs []float64) []float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted
}

// quantiles sorts a copy of xs and picks each q from it.
func quantiles(xs []float64, qs ...float64) []Quantile {
	sorted := sortedCopy(xs)
	out := make([]Quantile, len(qs))
	for i, q := range qs {
		out[i] = pick(sorted, q)
	}
	return out
}

// median is the middle of xs (the mean of the two middle values for an
// even count); NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sorted := sortedCopy(xs)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// windowStats summarises one latency window: its p50 and p99 in µs.
type windowStats struct {
	n        int
	p50, p99 float64
}

// latencyWindows collects request latencies of one connection in
// windows of a fixed number of requests. A full window's p50 and p99 are
// kept and its samples dropped, so memory stays bounded by one window
// while the run is summarised by the median of its window percentiles,
// which a single stall cannot move far.
type latencyWindows struct {
	buf     []float64
	windows []windowStats
}

func newLatencyWindows(size int) *latencyWindows {
	return &latencyWindows{buf: make([]float64, 0, size)}
}

// add records one latency in µs.
func (w *latencyWindows) add(us float64) {
	w.buf = append(w.buf, us)
	if len(w.buf) == cap(w.buf) {
		slices.Sort(w.buf)
		w.windows = append(w.windows, windowStats{n: len(w.buf), p50: pick(w.buf, 0.50).Value, p99: pick(w.buf, 0.99).Value})
		w.buf = w.buf[:0]
	}
}

// windowSummary is the median over windows of each window percentile.
type windowSummary struct {
	p50, p99 float64
	windows  int
	samples  int // samples inside the summarised windows
}

func summarise(ws []windowStats) windowSummary {
	if len(ws) == 0 {
		return windowSummary{p50: math.NaN(), p99: math.NaN()}
	}
	p50 := make([]float64, len(ws))
	p99 := make([]float64, len(ws))
	s := windowSummary{windows: len(ws)}
	for i, w := range ws {
		p50[i], p99[i] = w.p50, w.p99
		s.samples += w.n
	}
	s.p50, s.p99 = median(p50), median(p99)
	return s
}

// ioPerRequest is the per-request cost of the socket path: the time a
// request takes over loopback HTTP minus the time the same system takes
// in process, both from throughputs (requests per second), in µs.
func ioPerRequest(socketRPS, inprocRPS float64) float64 {
	return 1e6/socketRPS - 1e6/inprocRPS
}

// stubOverhead is the tracked (SuperGlue stub) cost over the base
// binding's cost of the same micro-op: 1.0 means the stub adds nothing.
func stubOverhead(trackNS, baseNS float64) float64 {
	return trackNS / baseNS
}
