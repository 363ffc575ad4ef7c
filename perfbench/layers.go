package main

import (
	"sort"

	"ppm/internal/core"
)

// Per-layer metric families. Every traced run prints every name — the
// classes of all workloads — so one list describes every run; a name a
// workload does not exercise reads 0 there (a sim run puts nothing on
// the wire). README.md maps each to the end-to-end metric it should
// move.
var (
	simClasses  = []string{"cg", "jacobi", "colloc", "nbody", "scatter"}
	distClasses = []string{"onephase", "scatter", "cg", "jacobi"}
	// allClasses is the union, for the families both workloads share.
	allClasses = []string{"cg", "jacobi", "colloc", "nbody", "scatter", "onephase"}
	// traceLayers are the layers the benchmark's spans enter.
	traceLayers = []string{"bench", "jobspec", "dist", "server"}
)

type family struct {
	prefix  string
	unit    string
	classes []string // nil: one metric named prefix
}

var families = []family{
	{"jobspec.run_ms", "ms", simClasses},
	{"core.phase_us", "us", simClasses},
	{"core.plan_invalidations", "count", simClasses},
	{"core.modeled_s", "s", simClasses},
	{"core.phases", "count", allClasses},
	{"core.bundles", "count", allClasses},
	{"core.plan_hit_ratio", "ratio", allClasses},
	{"host.alloc_mb_per_job", "MB", nil},
	{"host.gc_cycles_per_job", "count", nil},
	{"dist.launch_ms", "ms", distClasses},
	{"dist.merge_us", "us", nil},
	{"jobspec.flatten_us", "us", nil},
	{"dist.fixed_ms", "ms", nil},
	{"wire.read_reqs", "count", distClasses},
	{"wire.reads_coalesced", "count", distClasses},
	{"wire.frames", "count", distClasses},
	{"wire.flushes", "count", distClasses},
	{"wire.bytes", "bytes", distClasses},
	{"wire.commit_bytes", "bytes", distClasses},
	{"server.submit_ms", "ms", nil},
	{"server.cache_hit_ms", "ms", nil},
	{"server.cache_hit_share", "share", nil},
	{"server.result_ms", "ms", nil},
	{"server.result_kb", "KB", nil},
	{"server.start_ms", "ms", nil},
	{"server.phase_gap_ms", "ms", nil},
	{"core.plan_hits.serve", "count", nil},
	{"server.fleets_spawned", "count", nil},
	{"server.fleets_reused", "count", nil},
	{"server.jobs_retried", "count", nil},
	{"host.calib_ms", "ms", nil},
	{"trace.overhead_pct", "%", nil},
	{"trace.self_ms", "ms", traceLayers},
}

// perLayerNames lists every per-layer metric with its unit, in order.
func perLayerNames() (names, units []string) {
	for _, f := range families {
		if f.classes == nil {
			names = append(names, f.prefix)
			units = append(units, f.unit)
			continue
		}
		for _, c := range f.classes {
			names = append(names, f.prefix+"."+c)
			units = append(units, f.unit)
		}
	}
	return names, units
}

// layerMetrics computes the per-layer metrics of a traced run. Timings
// come from the traced jobs' spans, counts from every job's result.
func (r *run) layerMetrics() map[string]metric {
	names, units := perLayerNames()
	vals := map[string]float64{}
	for k, m := range r.layer {
		vals[k] = m.Value
	}

	byClass := map[string][]*outcome{}
	for _, o := range r.outs {
		byClass[o.job.class] = append(byClass[o.job.class], o)
	}
	spanMed := func(os []*outcome, call string) float64 {
		var xs []float64
		for _, o := range os {
			if v, ok := o.spanMS(call); ok {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	// perJob averages a count over the jobs that ran fresh (a cache hit
	// carries its source run's counters).
	perJob := func(os []*outcome, f func(t *core.NodeStats, nodes int) float64) float64 {
		var xs []float64
		for _, o := range os {
			if o.res != nil && !o.res.Cached {
				xs = append(xs, f(&o.res.Totals, len(o.res.PerNode)))
			}
		}
		return mean(xs)
	}

	if r.w.name != "serve" {
		for class, os := range byClass {
			phases := perJob(os, func(t *core.NodeStats, n int) float64 { return float64(t.GlobalPhases) / float64(n) })
			vals["core.phases."+class] = phases
			vals["core.bundles."+class] = perJob(os, func(t *core.NodeStats, _ int) float64 { return float64(t.BundlesOut) })
			vals["core.plan_hit_ratio."+class] = perJob(os, func(t *core.NodeStats, _ int) float64 {
				if a := t.PlanCache.Hits + t.PlanCache.Misses; a > 0 {
					return float64(t.PlanCache.Hits) / float64(a)
				}
				return 0
			})
		}
	}
	switch r.w.name {
	case "sim-jobs":
		for class, os := range byClass {
			run := spanMed(os, "jobspec.RunLocal")
			vals["jobspec.run_ms."+class] = run
			if p := vals["core.phases."+class]; p > 0 {
				vals["core.phase_us."+class] = run * 1e3 / p
			}
			vals["core.plan_invalidations."+class] = perJob(os, func(t *core.NodeStats, _ int) float64 { return float64(t.PlanCache.Invalidations) })
			var modeled []float64
			for _, o := range os {
				if o.res != nil {
					modeled = append(modeled, modeledSeconds(o.res.PerNode))
				}
			}
			vals["core.modeled_s."+class] = mean(modeled)
		}
	case "dist-cold":
		var all []*outcome
		for class, os := range byClass {
			all = append(all, os...)
			vals["dist.launch_ms."+class] = spanMed(os, "dist.LaunchLocal")
			w := func(f func(w *core.WireStats) int64) float64 {
				return perJob(os, func(t *core.NodeStats, _ int) float64 { return float64(f(&t.Wire)) })
			}
			vals["wire.read_reqs."+class] = w(func(w *core.WireStats) int64 { return w.ReadReqsSent })
			vals["wire.reads_coalesced."+class] = w(func(w *core.WireStats) int64 { return w.ReadsCoalesced })
			vals["wire.frames."+class] = w(func(w *core.WireStats) int64 { return w.FramesOut })
			vals["wire.flushes."+class] = w(func(w *core.WireStats) int64 { return w.Flushes })
			vals["wire.bytes."+class] = w(func(w *core.WireStats) int64 { return w.BytesOnWire })
			vals["wire.commit_bytes."+class] = w(func(w *core.WireStats) int64 { return w.CommitBytesEnc })
		}
		vals["dist.merge_us"] = spanMed(all, "dist.Merge") * 1e3
		vals["jobspec.flatten_us"] = spanMed(all, "jobspec.FromMerged") * 1e3
		vals["dist.fixed_ms"] = vals["dist.launch_ms.onephase"]
	case "serve":
		var hits, gaps, starts, kb []float64
		cached := 0
		for _, o := range r.outs {
			if o.job.class == "hit" && o.err == nil {
				hits = append(hits, ms(o.lat))
			}
			if o.res != nil && o.res.Cached {
				cached++
			}
			gaps = append(gaps, o.phaseGaps...)
			if o.startMS > 0 {
				starts = append(starts, o.startMS)
			}
			kb = append(kb, o.resultKB)
		}
		vals["server.submit_ms"] = spanMed(r.outs, "POST /v1/jobs")
		vals["server.result_ms"] = spanMed(r.outs, "GET /v1/jobs/{id}")
		vals["server.result_kb"] = mean(kb)
		vals["server.cache_hit_ms"] = median(hits)
		vals["server.cache_hit_share"] = float64(cached) / float64(len(r.outs))
		vals["server.start_ms"] = median(starts)
		vals["server.phase_gap_ms"] = median(gaps)
		vals["core.plan_hits.serve"] = perJob(byClass["dist"], func(t *core.NodeStats, _ int) float64 { return float64(t.PlanCache.Hits) })
	}

	n := float64(len(r.outs))
	vals["host.alloc_mb_per_job"] = float64(r.memEnd.TotalAlloc-r.memStart.TotalAlloc) / (1 << 20) / n
	vals["host.gc_cycles_per_job"] = float64(r.memEnd.NumGC-r.memStart.NumGC) / n
	vals["host.calib_ms"] = (ms(r.calib[0]) + ms(r.calib[1])) / 2
	vals["trace.overhead_pct"] = r.traceOverheadPct()
	traced := 0
	for _, o := range r.outs {
		if o.root != nil {
			traced++
		}
	}
	for layer, d := range r.tr.selfTimes() {
		if traced > 0 {
			vals["trace.self_ms."+layer] = ms(d) / float64(traced)
		}
	}

	out := make(map[string]metric, len(names))
	for i, name := range names {
		out[name] = metric{vals[name], units[i]}
	}
	return out
}

// modeledSeconds is the run's modeled time: the busiest node's modeled
// phase time (compute, unhidden communication, and apply). It is the
// quantity the repository reproduces, so no host-side change may move
// it.
func modeledSeconds(perNode []core.NodeStats) float64 {
	var best float64
	for _, s := range perNode {
		if t := (s.PhaseComputeTime + s.PhaseCommTime + s.PhaseApplyTime).Seconds(); t > best {
			best = t
		}
	}
	return best
}

// traceOverheadPct compares traced and untraced jobs of each class (they
// alternate in a traced run): the share-weighted mean of the classes'
// median-latency ratios, as a percentage above 1.
func (r *run) traceOverheadPct() float64 {
	type pair struct{ on, off []float64 }
	by := map[string]*pair{}
	for _, o := range r.outs {
		p := by[o.job.class]
		if p == nil {
			p = &pair{}
			by[o.job.class] = p
		}
		if o.root != nil {
			p.on = append(p.on, ms(o.lat))
		} else {
			p.off = append(p.off, ms(o.lat))
		}
	}
	classes := make([]string, 0, len(by))
	for c := range by {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var sum, weight float64
	for _, c := range classes {
		p := by[c]
		off := median(p.off)
		if len(p.on) == 0 || off == 0 {
			continue
		}
		share := float64(len(p.on) + len(p.off))
		sum += share * median(p.on) / off
		weight += share
	}
	if weight == 0 {
		return 0
	}
	return (sum/weight - 1) * 100
}
