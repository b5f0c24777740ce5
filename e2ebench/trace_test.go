package main

import (
	"strings"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	log := tr.log()
	root := log.add("round", 1, -1, at(0), at(100))
	log.add("run", 1, root, at(10), at(40))
	log.add("run", 1, root, at(30), at(60)) // overlaps the first child
	other := tr.log()
	r2 := other.open("round", 2, -1, at(200))
	other.add("run", 2, r2, at(200), at(250))
	other.close(r2, at(250))

	spans := tr.spans()
	if spans[4].parent != 3 {
		t.Fatalf("parent of the second log's child is %d, want 3", spans[4].parent)
	}
	got := map[string]spanTotals{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if r := got["round"]; r.Count != 2 || r.TotalNS != 150 || r.SelfNS != 50 {
		t.Errorf("round totals %+v, want 2 spans, 150 ns, 50 ns self", r)
	}
	if r := got["run"]; r.Count != 3 || r.TotalNS != 110 || r.SelfNS != 110 {
		t.Errorf("run totals %+v", r)
	}
	var nilLog *spanLog
	if i := nilLog.add("x", 0, -1, at(0), at(1)); i != -1 {
		t.Errorf("a nil log recorded a span")
	}
	var b strings.Builder
	if err := encodeSpans(&b, spans); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "\n"); n != len(spans) {
		t.Errorf("span file has %d lines, want %d", n, len(spans))
	}
}
