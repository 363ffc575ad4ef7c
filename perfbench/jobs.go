package main

import (
	"fmt"
	"math/rand/v2"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/scatter"
	"ppm/internal/jobspec"
)

// job is one entry of a workload's seed-fixed job list.
type job struct {
	id    int // unique in the run: warm-up jobs first, then the list
	class string
	spec  jobspec.Spec // normalized
	// client is the serve client that submits the job (job i of the
	// list goes to client i mod clients).
	client int
	// repeatOf, for a serve cache-hit job, is the id of the same
	// client's earlier job whose spec it resubmits; -1 marks a fresh
	// spec.
	repeatOf int
}

// workload describes one benchmark workload's job list.
type workload struct {
	name string
	// classes lists the job classes in ascending expected latency: the
	// order the percentile guard checks the seeded list against.
	classes []string
	// cycle is the class multiset of one round of the list; every round
	// runs it once in a seeded order, so the class shares are exact.
	cycle []string
	// perSecond is the job count per requested second: a run of
	// -seconds s runs a fixed list of about perSecond*s jobs (rounded up
	// to whole rounds, at least minJobs), never a clock window.
	perSecond float64
	// clients is the number of closed-loop clients (serve only: 2).
	clients int
}

// minJobs keeps at least minBeyond jobs above the nearest-rank p90.
const minJobs = 100

var workloads = map[string]workload{
	"sim-jobs": {
		name:      "sim-jobs",
		classes:   []string{"scatter", "jacobi", "colloc", "cg", "nbody"},
		cycle:     []string{"scatter", "jacobi", "colloc", "cg", "nbody"},
		perSecond: 9,
		clients:   1,
	},
	"dist-cold": {
		name:    "dist-cold",
		classes: []string{"onephase", "scatter", "cg", "jacobi"},
		// Two cg per round put p50 inside the cg block (40-80% of the
		// latency-sorted list) and p90 inside the jacobi block (80-100%).
		cycle:     []string{"onephase", "scatter", "cg", "cg", "jacobi"},
		perSecond: 19,
		clients:   1,
	},
	"serve": {
		name:    "serve",
		classes: []string{"hit", "dist", "sim"},
		// p50 inside the dist block (30-70%), p90 inside sim (70-100%).
		cycle:     []string{"hit", "hit", "hit", "dist", "dist", "dist", "dist", "sim", "sim", "sim"},
		perSecond: 150,
		clients:   2,
	},
}

// jobCount is the fixed list length for a run of the given seconds.
func (w workload) jobCount(seconds int) int {
	n := int(w.perSecond*float64(seconds) + 0.5)
	if n < minJobs {
		n = minJobs
	}
	round := len(w.cycle) * w.clients
	return (n + round - 1) / round * round
}

// seedRNG is the one generator a run's inputs come from.
func seedRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// buildJobs returns the seed-fixed list of n jobs for w plus one
// warm-up job per class (and per client), which set-up runs untimed.
func buildJobs(w workload, seed uint64, n int) (jobs, warm []job) {
	r := seedRNG(seed, 1)
	add := func(list *[]job, j job) {
		j.id = len(warm) + len(jobs)
		*list = append(*list, j)
	}
	switch w.name {
	case "sim-jobs", "dist-cold":
		mkSpec := simJobSpec
		if w.name == "dist-cold" {
			mkSpec = distColdSpec
		}
		// Data seeds come from a small per-run set so the reference runs
		// (one per distinct spec) stay few.
		dataSeeds := [3]uint64{r.Uint64()>>1 | 1, r.Uint64()>>1 | 1, r.Uint64()>>1 | 1}
		mk := func(class string) job {
			return job{class: class, spec: mkSpec(class, dataSeeds[r.IntN(len(dataSeeds))]), repeatOf: -1}
		}
		for _, c := range w.classes {
			add(&warm, mk(c))
		}
		for _, c := range rounds(w, r, n) {
			add(&jobs, mk(c))
		}
	case "serve":
		// Every fresh spec carries its own data seed, so it misses the
		// result cache; a hit resubmits one of the same client's earlier
		// fresh specs, so it always finds its result cached.
		base := r.Uint64() >> 8
		next := uint64(0)
		fresh := make([][]job, w.clients) // per client, fresh jobs so far
		mk := func(class string, client int) job {
			if class == "hit" {
				src := fresh[client][r.IntN(len(fresh[client]))]
				return job{class: class, spec: src.spec, client: client, repeatOf: src.id}
			}
			next++
			return job{class: class, spec: serveSpec(class, client, base+next), client: client, repeatOf: -1}
		}
		for c := 0; c < w.clients; c++ {
			for _, class := range []string{"dist", "sim", "hit"} {
				add(&warm, mk(class, c))
				if j := warm[len(warm)-1]; j.repeatOf < 0 {
					fresh[c] = append(fresh[c], j)
				}
			}
		}
		for i, class := range rounds(w, r, n) {
			c := i % w.clients
			add(&jobs, mk(class, c))
			if j := jobs[len(jobs)-1]; j.repeatOf < 0 {
				fresh[c] = append(fresh[c], j)
			}
		}
	default:
		panic(fmt.Sprintf("unknown workload %q", w.name))
	}
	return jobs, warm
}

// rounds returns n classes: whole rounds of w.cycle, each shuffled.
func rounds(w workload, r *rand.Rand, n int) []string {
	var out []string
	for len(out) < n {
		round := append([]string(nil), w.cycle...)
		r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	return out[:n]
}

// simJobSpec is a sim-jobs spec of class app at 4 nodes x 4 cores:
// the jobspec defaults, which are the repo's figure sizes. seed varies
// the data of the apps that take one.
func simJobSpec(app string, seed uint64) jobspec.Spec {
	s := jobspec.Spec{App: app, Backend: jobspec.BackendSim, Nodes: 4, Cores: 4}
	switch app {
	case "cg":
		s.CG = &cg.Params{NX: 24, NY: 24, NZ: 48, MaxIter: 20}
	case "jacobi":
		s.Jacobi = &jacobi.Params{NX: 24, NY: 24, NZ: 48, Sweeps: 10}
	case "colloc":
		s.Colloc = &colloc.Params{Levels: 7, M0: 12, Delta: 3}
	case "nbody":
		s.Nbody = &nbody.Params{N: 3000, Steps: 2, Seed: seed}
	case "scatter":
		s.Scatter = &scatter.Params{Seed: seed}
	}
	s.Normalize()
	return s
}

// distColdSpec is a dist-cold spec of the given class on a fresh
// 2-process fleet.
func distColdSpec(class string, seed uint64) jobspec.Spec {
	s := jobspec.Spec{Backend: jobspec.BackendDist, Nodes: 2, Cores: 4}
	switch class {
	case "onephase":
		// One scatter-add phase of one VP per node over a tiny array:
		// the fleet's fixed cost (spawn, mesh-up, teardown) and little
		// else.
		s.App = "scatter"
		s.Scatter = &scatter.Params{N: 64, VPs: 1, Iters: 1, Seed: seed}
	case "scatter":
		s.App = "scatter"
		s.Scatter = &scatter.Params{Seed: seed}
	case "cg":
		s.App = "cg"
		s.CG = &cg.Params{NX: 16, NY: 16, NZ: 24, MaxIter: 10}
	case "jacobi":
		s.App = "jacobi"
		s.Jacobi = &jacobi.Params{NX: 16, NY: 16, NZ: 24, Sweeps: 6}
	}
	s.Normalize()
	return s
}

// serveSpec is a fresh serve spec: a small scatter on the client's warm
// fleet, or a small in-process nbody. Client c's dist jobs use 2+2c
// cores, a fleet shape of its own, so each client always runs on the
// same warm fleet and the fleets' plan-cache histories are fixed by the
// seed.
func serveSpec(class string, client int, seed uint64) jobspec.Spec {
	var s jobspec.Spec
	switch class {
	case "dist":
		s = jobspec.Spec{App: "scatter", Backend: jobspec.BackendDist, Nodes: 2, Cores: 2 + 2*client,
			Scatter: &scatter.Params{Seed: seed}}
	case "sim":
		s = jobspec.Spec{App: "nbody", Backend: jobspec.BackendSim, Nodes: 2, Cores: 2,
			Nbody: &nbody.Params{N: 800, Steps: 1, Seed: seed}}
	}
	s.Normalize()
	return s
}

// simReference is the sim-backend twin of a spec: the simulator's
// Series are the oracle every backend must match bit for bit.
func simReference(s jobspec.Spec) jobspec.Spec {
	s.Backend = jobspec.BackendSim
	return s
}
