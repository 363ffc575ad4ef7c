package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"ppm/internal/jobspec"
)

// TestMetricsConservation drives a mix of admissions and rejections
// through one worker and checks that /metrics reconciles at rest:
// submitted == completed + failed + expired + queued + running, and the
// cache counted exactly one hit or miss per cache-eligible admission.
// The mix covers the two paths that used to double-count: a duplicate
// served from the cache at submit time, and a duplicate that missed at
// submit and found its twin's result when it was dequeued.
func TestMetricsConservation(t *testing.T) {
	s := startServer(t, Config{Workers: 1, TenantQuota: 3, MaxQueue: 4})
	base := "http://" + s.Addr()

	spec := func(sweeps int, deadlineMS int64) jobspec.Spec {
		var sp jobspec.Spec
		raw := fmt.Sprintf(`{"app":"jacobi","backend":"sim","nodes":2,"cores":2,"jacobi":{"NX":12,"NY":12,"NZ":12,"Sweeps":%d}}`, sweeps)
		if err := json.Unmarshal([]byte(raw), &sp); err != nil {
			t.Fatal(err)
		}
		sp.DeadlineMS = deadlineMS
		sp.Normalize()
		return sp
	}

	var admitted, eligible, rejected int64
	var ids []string
	post := func(req SubmitRequest) {
		var out SubmitResponse
		code, _ := postJSON(t, base+"/v1/jobs", req, &out)
		switch code {
		case http.StatusOK, http.StatusAccepted:
			admitted++
			if !req.NoCache {
				eligible++
			}
			ids = append(ids, out.ID)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("submit returned %d", code)
		}
	}

	// A burst the single worker cannot keep up with: back-to-back twins
	// (the second misses at submit, then hits at dequeue), a no_cache
	// rerun, a job whose deadline is likely gone by the time it is
	// dequeued, and enough of one tenant's jobs to trip its quota.
	for i := 0; i < 3; i++ {
		post(SubmitRequest{Tenant: "a", Spec: spec(40+i, 0)})
		post(SubmitRequest{Tenant: "b", Spec: spec(40+i, 0)})
	}
	post(SubmitRequest{Tenant: "b", NoCache: true, Spec: spec(40, 0)})
	post(SubmitRequest{Tenant: "c", Spec: spec(60, 1)})
	for _, id := range ids {
		await(t, base, id)
	}
	// Resubmitting a finished spec is a submit-time cache hit.
	post(SubmitRequest{Tenant: "c", Spec: spec(41, 0)})
	if rejected == 0 {
		t.Fatal("the burst never hit the tenant quota; the mix does not exercise rejections")
	}

	var m Metrics
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, base+"/metrics", &m); code != http.StatusOK {
			t.Fatalf("GET /metrics: %d", code)
		}
		if m.Jobs.Queued == 0 && m.Jobs.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came to rest: %+v", m.Jobs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	j := m.Jobs
	if j.Submitted != admitted || j.Rejected != rejected {
		t.Errorf("submitted=%d rejected=%d, want %d and %d", j.Submitted, j.Rejected, admitted, rejected)
	}
	if sum := j.Completed + j.Failed + j.Expired + int64(j.Queued) + j.Running; j.Submitted != sum {
		t.Errorf("submitted=%d but completed+failed+expired+queued+running=%d (%+v)", j.Submitted, sum, j)
	}
	if got := m.Cache.Hits + m.Cache.Misses; got != eligible {
		t.Errorf("cache hits+misses = %d+%d, want %d cache-eligible submissions", m.Cache.Hits, m.Cache.Misses, eligible)
	}
	if j.Cached < 1 || m.Cache.Hits < 1 {
		t.Errorf("the resubmission was not served from the cache: %+v, cache %+v", j, m.Cache)
	}
}
