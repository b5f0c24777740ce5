package main

import (
	"math"
	"testing"
)

func TestPickReportsSamplesBehindThePercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose
	}
	q := quantiles(xs, 0.50, 0.99, 1)
	want := []Quantile{
		{Q: 0.50, Value: 100, Samples: 200, Beyond: 100},
		{Q: 0.99, Value: 198, Samples: 200, Beyond: 2},
		{Q: 1, Value: 200, Samples: 200, Beyond: 0},
	}
	for i := range want {
		if q[i] != want[i] {
			t.Errorf("quantile %v = %+v, want %+v", want[i].Q, q[i], want[i])
		}
	}
	if xs[0] != 200 {
		t.Errorf("quantiles sorted its input in place")
	}
	if got := pick(nil, 0.5); !math.IsNaN(got.Value) || got.Samples != 0 {
		t.Errorf("pick of no samples = %+v, want NaN with 0 samples", got)
	}
	if got := pick([]float64{7}, 0.99); got.Value != 7 || got.Samples != 1 || got.Beyond != 0 {
		t.Errorf("pick of one sample = %+v", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{5}, 5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing is not NaN")
	}
}

func TestLatencyWindowsSummariseEachWindow(t *testing.T) {
	w := newLatencyWindows(100)
	for i := 300; i >= 1; i-- { // three windows: 300..201, 200..101, 100..1
		w.add(float64(i))
	}
	w.add(1e6) // an open window is not summarised
	want := []windowStats{{100, 250, 299}, {100, 150, 199}, {100, 50, 99}}
	if len(w.windows) != len(want) {
		t.Fatalf("windows %+v, want %+v", w.windows, want)
	}
	for i := range want {
		if w.windows[i] != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, w.windows[i], want[i])
		}
	}
	s := summarise(w.windows)
	if s.windows != 3 || s.samples != 300 || s.p50 != 150 || s.p99 != 199 {
		t.Errorf("summary = %+v", s)
	}
}

func TestDerivedMetrics(t *testing.T) {
	// 40k req/s over sockets against 100k req/s in process: 25 µs against
	// 10 µs per request, so the socket path costs 15 µs.
	if got := ioPerRequest(40_000, 100_000); math.Abs(got-15) > 1e-9 {
		t.Errorf("ioPerRequest = %v, want 15", got)
	}
	if got := stubOverhead(190, 152); math.Abs(got-1.25) > 1e-9 {
		t.Errorf("stubOverhead = %v, want 1.25", got)
	}
}
