package main

import (
	"strings"
	"testing"
)

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{50, 100, 50}, {90, 100, 90}, {90, 101, 91}, {50, 1, 1},
		{100, 7, 7}, {1, 7, 1}, {0, 7, 1}, {50, 5, 3},
	} {
		if got := nearestRank(c.p, c.n); got != c.want {
			t.Errorf("nearestRank(%g, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := seq(200)
	for _, c := range []struct{ p, want float64 }{{50, 100}, {90, 180}, {95, 190}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..200 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if xs[0] != 200 {
		t.Errorf("percentile reordered its input")
	}
}

// A percentile needs at least ten samples strictly above its rank: 100
// samples carry a p90, 99 do not.
func TestPercentileWantsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(100), 90); err != nil {
		t.Errorf("p90 of 100 samples: %v", err)
	}
	_, err := percentile(seq(99), 90)
	if err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Errorf("p90 of 99 samples: err = %v, want a samples-beyond error", err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Errorf("p50 of 19 samples has 9 beyond it, want an error")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Errorf("percentile of no samples: want an error")
	}
}

func blocks(spec ...any) []string {
	var out []string
	for i := 0; i < len(spec); i += 2 {
		for k := 0; k < spec[i+1].(int); k++ {
			out = append(out, spec[i].(string))
		}
	}
	return out
}

func TestClassBoundaryGuard(t *testing.T) {
	// p50 of 200 is rank 100, deep inside b (ranks 61-140).
	if err := classBoundaryGuard(blocks("a", 60, "b", 80, "c", 60), 50, 10); err != nil {
		t.Errorf("p50 inside a class: %v", err)
	}
	// Two equal classes put p50 exactly on their boundary.
	if err := classBoundaryGuard(blocks("a", 100, "b", 100), 50, 10); err == nil {
		t.Errorf("p50 on the a|b boundary passed the guard")
	}
	// Within the margin of a boundary fails too: b starts at rank 106.
	if err := classBoundaryGuard(blocks("a", 105, "b", 95), 50, 10); err == nil {
		t.Errorf("p50 five ranks from a boundary passed a 10-rank guard")
	}
	// p90 of 100 is rank 90: an 11-rank margin runs past the list's end.
	if err := classBoundaryGuard(blocks("a", 50, "b", 50), 90, 11); err == nil {
		t.Errorf("p90 within the margin of the list's end passed the guard")
	}
}

func TestLatencyOrderedClasses(t *testing.T) {
	got := latencyOrderedClasses([]string{"slow", "fast", "mid", "fast"}, []float64{9, 1, 5, 2})
	want := []string{"fast", "fast", "mid", "slow"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v, want %v", got, want)
	}
}
