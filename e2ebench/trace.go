package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// a layer. Spans of one request (or one campaign round) share req;
// parent indexes the enclosing span in the same log (-1 for a root).
type span struct {
	name       string
	req        uint64
	parent     int
	start, end int64 // ns since the tracer's epoch
}

// spanLog is one goroutine's private span buffer; a nil log records
// nothing, so untraced runs pay only a nil check.
type spanLog struct {
	epoch time.Time
	spans []span
}

// add records a finished span and returns its index.
func (l *spanLog) add(name string, req uint64, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, req: req, parent: parent,
		start: int64(start.Sub(l.epoch)), end: int64(end.Sub(l.epoch))})
	return len(l.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (l *spanLog) open(name string, req uint64, parent int, start time.Time) int {
	return l.add(name, req, parent, start, start)
}

func (l *spanLog) close(i int, end time.Time) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = int64(end.Sub(l.epoch))
}

// tracer owns every span log of a run. Logs are handed out to
// goroutines and folded back, in hand-out order, when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
	trees atomic.Int64 // request span trees handed out
}

// maxRequestTrees bounds the HTTP requests recorded as span trees in one
// run, and so the memory spans take; later requests are timed but not
// recorded.
const maxRequestTrees = 50_000

// takeTree reports whether one more request may be recorded.
func (t *tracer) takeTree() bool { return t.trees.Add(1) <= maxRequestTrees }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// log returns a fresh span log, or nil when t is nil (tracing off).
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{epoch: t.epoch}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// spans concatenates every log, re-basing parent indexes.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		base := len(out)
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Name    string
	Count   int
	TotalNS int64
	SelfNS  int64
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part of it its children cover.
func selfTimes(spans []span) []spanTotals {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	byName := make(map[string]*spanTotals)
	for i, s := range spans {
		tot := byName[s.name]
		if tot == nil {
			tot = &spanTotals{Name: s.name}
			byName[s.name] = tot
		}
		dur := s.end - s.start
		tot.Count++
		tot.TotalNS += dur
		tot.SelfNS += dur - covered(s.start, s.end, children[i])
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of [start, end) covered by the union of ivs.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// writeSpans writes spans as JSON lines to dir/name and returns the path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := encodeSpans(w, spans); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func encodeSpans(w io.Writer, spans []span) error {
	for i, s := range spans {
		if _, err := fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.parent, s.req, s.name, s.start, s.end); err != nil {
			return err
		}
	}
	return nil
}
