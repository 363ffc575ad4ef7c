package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// expectedOrder sorts a list's classes by the workload's expected
// latency order (w.classes), as a run's latency sort would.
func expectedOrder(w workload, jobs []job) []string {
	rank := map[string]int{}
	for i, c := range w.classes {
		rank[c] = i
	}
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.class
	}
	sort.SliceStable(out, func(a, b int) bool { return rank[out[a]] < rank[out[b]] })
	return out
}

// Every reported percentile must fall inside one job class of the
// seeded list, with a margin, and keep ten jobs beyond it.
func TestSeededListsKeepPercentilesInsideAClass(t *testing.T) {
	for name, w := range workloads {
		for _, seconds := range []int{1, 5, 10, 20, 30, 60} {
			for seed := uint64(1); seed <= 3; seed++ {
				n := w.jobCount(seconds)
				jobs, _ := buildJobs(w, seed, n)
				if len(jobs) != n || n < minJobs {
					t.Fatalf("%s: %d jobs for %d s, want %d (at least %d)", name, len(jobs), seconds, n, minJobs)
				}
				sorted := expectedOrder(w, jobs)
				for _, p := range []float64{50, 90} {
					if err := classBoundaryGuard(sorted, p, guardMargin(n)); err != nil {
						t.Errorf("%s seed %d, %d s: %v", name, seed, seconds, err)
					}
					if beyond := n - nearestRank(p, n); beyond < minBeyond {
						t.Errorf("%s: p%g of %d jobs has %d beyond it", name, p, n, beyond)
					}
				}
			}
		}
	}
}

// The guard catches a list whose mix puts p50 on a class boundary: the
// dist-cold classes dealt evenly would.
func TestGuardRejectsAnEvenDistColdMix(t *testing.T) {
	w := workloads["dist-cold"]
	w.cycle = w.classes // one of each: p50 at the scatter|cg boundary
	n := w.jobCount(20)
	jobs, _ := buildJobs(w, 1, n)
	if err := classBoundaryGuard(expectedOrder(w, jobs), 50, guardMargin(n)); err == nil {
		t.Errorf("an even four-class mix passed the p50 guard")
	}
}

func TestJobListIsSeedFixed(t *testing.T) {
	for name, w := range workloads {
		n := w.jobCount(10)
		a, wa := buildJobs(w, 7, n)
		b, wb := buildJobs(w, 7, n)
		c, _ := buildJobs(w, 8, n)
		same := func(x, y []job) bool {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i].class != y[i].class || x[i].spec.Hash() != y[i].spec.Hash() || x[i].repeatOf != y[i].repeatOf {
					return false
				}
			}
			return true
		}
		if !same(a, b) || !same(wa, wb) {
			t.Errorf("%s: seed 7 gave two different lists", name)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", name)
		}
		for _, j := range append(wa, a...) {
			if err := j.spec.Validate(); err != nil {
				t.Errorf("%s job %d: %v", name, j.id, err)
			}
		}
	}
}

// A serve cache hit resubmits an earlier fresh spec of the same client,
// so it must hit; every fresh spec is new to the server, so it must miss.
func TestServeHitsAndMisses(t *testing.T) {
	w := workloads["serve"]
	jobs, warm := buildJobs(w, 3, w.jobCount(20))
	all := append(append([]job{}, warm...), jobs...)
	seen := map[string]int{} // fresh hash -> job id
	hits := 0
	for i, j := range all {
		if j.id != i {
			t.Fatalf("job %d has id %d", i, j.id)
		}
		if i >= len(warm) && j.client != (i-len(warm))%w.clients {
			t.Errorf("list job %d dealt to client %d", i-len(warm), j.client)
		}
		h := j.spec.Hash()
		if j.repeatOf < 0 {
			if prev, dup := seen[h]; dup {
				t.Errorf("fresh job %d repeats job %d's spec", j.id, prev)
			}
			seen[h] = j.id
			continue
		}
		hits++
		src := all[j.repeatOf]
		if src.id >= j.id || src.client != j.client || src.repeatOf >= 0 || src.spec.Hash() != h {
			t.Errorf("hit %d resubmits job %d (client %d, fresh %v), want an earlier fresh job of client %d",
				j.id, src.id, src.client, src.repeatOf < 0, j.client)
		}
	}
	if want := len(jobs) * 3 / 10; hits-w.clients != want {
		t.Errorf("%d list hits, want %d", hits-w.clients, want)
	}
}

// BENCHMARK.json's per-layer list is the list a traced run prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names, units := perLayerNames()
	if len(names) != len(b.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench prints %d", len(b.PerLayer), len(names))
	}
	for i, m := range b.PerLayer {
		if m.Name != names[i] || m.Unit != units[i] {
			t.Errorf("per_layer[%d] = %s (%s), perfbench prints %s (%s)", i, m.Name, m.Unit, names[i], units[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, perfbench prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), perfbench prints %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for _, wl := range b.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to perfbench", wl.Name)
		}
	}
}
