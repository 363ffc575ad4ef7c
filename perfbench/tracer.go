package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory around every public call the benchmark
// makes into the program, and writes them out when the run ends. A nil
// *tracer records nothing, so the untimed and the untraced paths share
// the workload code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

// span is one call: its layer (the package it enters), name, interval,
// the span that caused it, and the job it belongs to.
type span struct {
	id, parent int
	layer      string
	name       string
	job        string
	start, end time.Time
	tr         *tracer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span. parent may be nil for a job's root span.
func (t *tracer) start(parent *span, layer, name, job string) *span {
	if t == nil {
		return nil
	}
	s := &span{layer: layer, name: name, job: job, start: time.Now(), tr: t}
	t.mu.Lock()
	s.id = len(t.spans) + 1
	if parent != nil {
		s.parent = parent.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (s *span) stop() {
	if s == nil {
		return
	}
	end := time.Now()
	s.tr.mu.Lock()
	s.end = end
	s.tr.mu.Unlock()
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTimes returns each layer's self time — its spans' durations minus
// the part of each covered by child spans — summed over all spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]*span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.layer] += s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x[0].After(cur[1]):
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = x
		}
	}
	return total + cur[1].Sub(cur[0])
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; tid groups a job's spans on one track.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto) with the per-layer self times attached
// as trace metadata.
func (t *tracer) writeChrome(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	tids := map[string]int{}
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		tid, ok := tids[s.job]
		if !ok {
			tid = len(tids) + 1
			tids[s.job] = tid
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"job": s.job, "id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	selfMS := map[string]float64{}
	for l, d := range self {
		selfMS[l] = float64(d.Nanoseconds()) / 1e6
	}
	b, err := json.Marshal(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"self_ms_by_layer": selfMS},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
