package core

import (
	"testing"

	"ppm/internal/rng"
)

// The interval-cover set (coverAdd / coverSub / coverMissing) is the
// heart of the distributed read cache and of the fleet-wide fetch
// single-flight, so it is checked two ways: a seeded random operation
// sequence against a naive bitmap oracle, and the adjacency edge cases
// spelled out by hand.

const coverUniverse = 64

// coverBits materializes a cover as a bitmap for oracle comparison.
func coverBits(t *testing.T, cov []intRun) [coverUniverse]bool {
	t.Helper()
	var b [coverUniverse]bool
	prevHi := -1
	for i, r := range cov {
		if r.lo >= r.hi {
			t.Fatalf("run %d is empty: [%d,%d)", i, r.lo, r.hi)
		}
		// Sorted, disjoint, and never merely touching: coverAdd merges
		// adjacent runs, so a canonical cover has gaps between runs.
		if r.lo <= prevHi {
			t.Fatalf("run %d [%d,%d) is not strictly after [..,%d)", i, r.lo, r.hi, prevHi)
		}
		prevHi = r.hi
		for j := r.lo; j < r.hi && j < coverUniverse; j++ {
			b[j] = true
		}
	}
	return b
}

func TestCoverPropertyVsBitmapOracle(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		var cov []intRun
		var oracle [coverUniverse]bool
		for step := 0; step < 200; step++ {
			lo := r.Intn(coverUniverse)
			hi := lo + r.Intn(coverUniverse-lo+1)
			switch r.Intn(3) {
			case 0:
				cov = coverAdd(cov, lo, hi)
				for j := lo; j < hi; j++ {
					oracle[j] = true
				}
			case 1:
				cov = coverSub(cov, lo, hi)
				for j := lo; j < hi; j++ {
					oracle[j] = false
				}
			case 2:
				missing := coverMissing(cov, lo, hi)
				var got [coverUniverse]bool
				mPrevHi := -1
				for i, m := range missing {
					if m.lo >= m.hi || m.lo < lo || m.hi > hi {
						t.Fatalf("trial %d step %d: missing run %d [%d,%d) outside query [%d,%d)",
							trial, step, i, m.lo, m.hi, lo, hi)
					}
					if m.lo <= mPrevHi {
						t.Fatalf("trial %d step %d: missing runs unsorted or touching", trial, step)
					}
					mPrevHi = m.hi
					for j := m.lo; j < m.hi; j++ {
						got[j] = true
					}
				}
				for j := lo; j < hi; j++ {
					if got[j] == oracle[j] {
						t.Fatalf("trial %d step %d: index %d missing=%v but covered=%v (cov %v, query [%d,%d))",
							trial, step, j, got[j], oracle[j], cov, lo, hi)
					}
				}
				continue
			}
			if got := coverBits(t, cov); got != oracle {
				t.Fatalf("trial %d step %d: cover %v diverged from oracle", trial, step, cov)
			}
		}
	}
}

func TestCoverAdjacentRunMerges(t *testing.T) {
	// Filling the gap between two runs collapses all three into one.
	cov := coverAdd(coverAdd(nil, 0, 2), 4, 6)
	cov = coverAdd(cov, 2, 4)
	if len(cov) != 1 || cov[0] != (intRun{lo: 0, hi: 6}) {
		t.Fatalf("bridge add left %v, want one [0,6) run", cov)
	}
	// Touching (not overlapping) on either side merges too.
	if got := coverAdd([]intRun{{lo: 0, hi: 2}}, 2, 4); len(got) != 1 || got[0] != (intRun{lo: 0, hi: 4}) {
		t.Fatalf("right-touching add left %v", got)
	}
	if got := coverAdd([]intRun{{lo: 2, hi: 4}}, 0, 2); len(got) != 1 || got[0] != (intRun{lo: 0, hi: 4}) {
		t.Fatalf("left-touching add left %v", got)
	}
	// An empty add is a no-op.
	if got := coverAdd([]intRun{{lo: 1, hi: 3}}, 2, 2); len(got) != 1 || got[0] != (intRun{lo: 1, hi: 3}) {
		t.Fatalf("empty add changed the cover: %v", got)
	}
	// Subtracting the middle splits; subtracting a touching range is a
	// no-op (half-open intervals share no elements).
	if got := coverSub([]intRun{{lo: 0, hi: 6}}, 2, 4); len(got) != 2 ||
		got[0] != (intRun{lo: 0, hi: 2}) || got[1] != (intRun{lo: 4, hi: 6}) {
		t.Fatalf("mid-sub left %v, want [0,2) [4,6)", got)
	}
	if got := coverSub([]intRun{{lo: 0, hi: 2}}, 2, 4); len(got) != 1 || got[0] != (intRun{lo: 0, hi: 2}) {
		t.Fatalf("touching sub changed the cover: %v", got)
	}
	// Missing over an empty cover is the whole query; over a full cover
	// it is nothing.
	if got := coverMissing(nil, 3, 9); len(got) != 1 || got[0] != (intRun{lo: 3, hi: 9}) {
		t.Fatalf("missing over empty cover = %v", got)
	}
	if got := coverMissing([]intRun{{lo: 0, hi: 10}}, 3, 9); len(got) != 0 {
		t.Fatalf("missing over full cover = %v", got)
	}
}

// TestClaimPagesVsBitmapOracle checks the page-widened fetch claim
// against a bitmap oracle: over random covers, disjoint pending sets,
// page sizes and array lengths, the claim is exactly the pages touching
// a requested element, clipped to [0, n), minus the cover and the
// pending set. That makes it cover the request together with dcov and
// dpend, stay disjoint from both, and stay inside the page-aligned hull.
// Requests come both as distFetch builds them (the gaps of one range)
// and as prefetchCover passes them (a recorded multi-run cover).
func TestClaimPagesVsBitmapOracle(t *testing.T) {
	r := rng.New(7)
	pages := []int{1, 2, 3, 4, 5, 8, 16, 64}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(coverUniverse)
		page := pages[r.Intn(len(pages))]
		randRange := func() (int, int) {
			lo := r.Intn(n)
			return lo, lo + r.Intn(n-lo+1)
		}
		var cov, pend []intRun
		for i := r.Intn(4); i > 0; i-- {
			lo, hi := randRange()
			cov = coverAdd(cov, lo, hi)
		}
		for i := r.Intn(3); i > 0; i-- {
			lo, hi := randRange()
			for _, g := range coverMissing(cov, lo, hi) {
				pend = coverAdd(pend, g.lo, g.hi)
			}
		}
		var req []intRun
		qlo, qhi := randRange()
		if trial%2 == 0 {
			req = coverMissing(cov, qlo, qhi)
		} else {
			for i := 1 + r.Intn(3); i > 0; i-- {
				lo, hi := randRange()
				req = coverAdd(req, lo, hi)
			}
		}

		covB, pendB, reqB := coverBits(t, cov), coverBits(t, pend), coverBits(t, req)
		var want [coverUniverse]bool
		for j := 0; j < n; j++ {
			if covB[j] || pendB[j] {
				continue
			}
			for i := j / page * page; i < (j/page+1)*page && i < n; i++ {
				if reqB[i] {
					want[j] = true
				}
			}
		}
		claim := claimPages(cov, pend, req, page, n)
		if got := coverBits(t, claim); got != want {
			t.Fatalf("trial %d: claimPages(cov %v, pend %v, req %v, page %d, n %d) = %v, want bits %v",
				trial, cov, pend, req, page, n, claim, want)
		}
		// The derived properties, spelled out against the same bitmaps.
		for j := 0; j < coverUniverse; j++ {
			if reqB[j] && !want[j] && !covB[j] && !pendB[j] {
				t.Fatalf("trial %d: requested %d neither claimed, cached nor pending", trial, j)
			}
			if want[j] && (j >= n || j < req[0].lo/page*page) {
				t.Fatalf("trial %d: claimed %d outside the page hull clipped to [0,%d)", trial, j, n)
			}
		}
	}
}

func TestClaimPagesEdges(t *testing.T) {
	// One element misses: its whole page is claimed, clipped at n.
	if got := claimPages(nil, nil, []intRun{{lo: 5, hi: 6}}, 4, 7); len(got) != 1 || got[0] != (intRun{lo: 4, hi: 7}) {
		t.Fatalf("single miss claimed %v, want [4,7)", got)
	}
	// Cached and in-flight parts of the page are left out; two gaps in
	// one page make one hull, not two overlapping claims.
	got := claimPages([]intRun{{lo: 1, hi: 2}}, []intRun{{lo: 6, hi: 7}}, []intRun{{lo: 0, hi: 1}, {lo: 2, hi: 3}}, 8, 64)
	want := []intRun{{lo: 0, hi: 1}, {lo: 2, hi: 6}, {lo: 7, hi: 8}}
	if len(got) != len(want) {
		t.Fatalf("claim = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim = %v, want %v", got, want)
		}
	}
	// A page wholly in flight claims nothing (the caller waits).
	if got := claimPages(nil, []intRun{{lo: 0, hi: 8}}, []intRun{{lo: 3, hi: 4}}, 8, 64); len(got) != 0 {
		t.Fatalf("in-flight page claimed %v", got)
	}
}
