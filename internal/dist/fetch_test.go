package dist

import (
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/jacobi"
	"ppm/internal/partition"
)

// Remote fetches are page-granular: a phase that reads a neighbor's
// boundary plane element by element costs one wire read per 4 KiB page
// of that plane, not one per element. These tests run the two
// fetch-bound figure apps on a 2-rank loopback mesh, hold them to the
// simulator bit for bit, and bound each rank's read requests by
// phases × pages spanned by its halo, plus one for rank 0's final
// result extraction.

// fetchPageElems is the page of float64 elements a fetch is widened to.
const fetchPageElems = 4096 / 8

// pagesSpanned counts the fetch pages [lo, hi) touches.
func pagesSpanned(lo, hi int) int64 {
	return int64((hi-1)/fetchPageElems - lo/fetchPageElems + 1)
}

// checkReadReqs asserts rank r sent at most phases × pages(halo r) + 1
// read requests, where halo(r) is the remote range rank r's stencil
// reaches: reach elements past each side of its block partition.
func checkReadReqs(t *testing.T, m *Merged, n, reach int) {
	t.Helper()
	part := partition.NewBlock(n, len(m.PerNode))
	for r, st := range m.PerNode {
		lo, hi := part.Range(r)
		var pages int64
		if lo > 0 {
			pages += pagesSpanned(max(lo-reach, 0), lo)
		}
		if hi < n {
			pages += pagesSpanned(hi, min(hi+reach, n))
		}
		bound := st.GlobalPhases*pages + 1
		got := st.Wire.ReadReqsSent
		t.Logf("rank %d: %d read requests over %d phases (bound %d)", r, got, st.GlobalPhases, bound)
		if got == 0 || got > bound {
			t.Errorf("rank %d: %d read requests over %d phases, want 1..%d (%d halo pages per phase)",
				r, got, st.GlobalPhases, bound, pages)
		}
	}
}

func TestPageFetchJacobi(t *testing.T) {
	opt := distOpt(2)
	prm := jacobi.Params{NX: 16, NY: 16, NZ: 24, Sweeps: 6}
	want, wrep, err := jacobi.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := runAppMesh(t, 2, opt, AppSpec{App: "jacobi", Jacobi: prm})
	sameF64(t, "u", m.Jacobi, want)
	samePerNode(t, m.PerNode, wrep.PerNode)
	// The 7-point stencil reaches one z-plane across the boundary.
	checkReadReqs(t, m, prm.N(), prm.NX*prm.NY)
}

func TestPageFetchCG(t *testing.T) {
	opt := distOpt(2)
	prm := cg.Params{NX: 16, NY: 16, NZ: 24, MaxIter: 6}
	want, wrep, err := cg.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := runAppMesh(t, 2, opt, AppSpec{App: "cg", CG: prm})
	if m.CG.Iters != want.Iters {
		t.Fatalf("iters = %d, want %d", m.CG.Iters, want.Iters)
	}
	sameF64(t, "residual", []float64{m.CG.Residual}, []float64{want.Residual})
	sameF64(t, "x", m.CG.X, want.X)
	samePerNode(t, m.PerNode, wrep.PerNode)
	// The 27-point stencil reaches one z-plane, one row and one point.
	checkReadReqs(t, m, prm.N(), prm.NX*prm.NY+prm.NX+1)
}
