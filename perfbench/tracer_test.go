package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A layer's self time is its spans' durations minus the union of their
// children's intervals: overlapping children count once, and a child
// running past its parent is clipped.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	add := func(parent *span, layer string, from, to int) *span {
		s := tr.start(parent, layer, layer+".call", "job-1")
		s.start, s.end = at(from), at(to)
		return s
	}
	root := add(nil, "bench", 0, 100)
	add(root, "dist", 10, 40)
	add(root, "dist", 30, 60) // overlaps the first: union 10-60
	add(root, "server", 90, 120)
	got := tr.selfTimes()
	want := map[string]time.Duration{
		"bench":  40 * time.Millisecond, // 100 - (50 + 10 clipped)
		"dist":   60 * time.Millisecond, // 30 + 30, no children
		"server": 30 * time.Millisecond,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		OtherData   struct {
			SelfMS map[string]float64 `json:"self_ms_by_layer"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 || doc.OtherData.SelfMS["bench"] != 40 {
		t.Errorf("trace file has %d events and bench self %v ms, want 4 and 40",
			len(doc.TraceEvents), doc.OtherData.SelfMS["bench"])
	}
	if ev := doc.TraceEvents[1]; ev.Ph != "X" || ev.Ts != 10000 || ev.Dur != 30000 || ev.Args["parent"] != float64(1) {
		t.Errorf("second event = %+v, want a complete event at 10ms for 30ms under span 1", ev)
	}
}

// A nil tracer, as in an untraced run, records nothing and never fails.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	s := tr.start(nil, "bench", "job", "j")
	s.stop()
	if s != nil {
		t.Errorf("nil tracer returned a span")
	}
}
