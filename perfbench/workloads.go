package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"ppm/internal/dist"
	"ppm/internal/jobspec"
	"ppm/internal/server"
)

// buildRefs runs the sim reference of every distinct fresh spec, untimed
// and outside set-up, one per CPU at a time: the simulator's Series are
// what every backend and every cache hit must reproduce bit for bit.
func (r *run) buildRefs() error {
	type ref struct {
		spec jobspec.Spec
		ids  []int
		d    seriesDigest
		err  error
	}
	byHash := map[string]*ref{}
	var todo []*ref
	for _, list := range [][]job{r.warm, r.jobs} {
		for _, j := range list {
			if j.repeatOf >= 0 {
				continue
			}
			s := simReference(j.spec)
			h := s.Hash()
			if byHash[h] == nil {
				byHash[h] = &ref{spec: s}
				todo = append(todo, byHash[h])
			}
			byHash[h].ids = append(byHash[h].ids, j.id)
		}
	}
	next := make(chan *ref)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range next {
				res, err := jobspec.RunLocal(&f.spec)
				if err != nil {
					f.err = err
					continue
				}
				f.d = digest(res)
			}
		}()
	}
	for _, f := range todo {
		next <- f
	}
	close(next)
	wg.Wait()
	for _, f := range todo {
		if f.err != nil {
			return fmt.Errorf("reference run of %s: %w", f.spec.App, f.err)
		}
		for _, id := range f.ids {
			r.refs[id] = f.d
		}
	}
	return nil
}

// sequential runs the list in order on one closed-loop client.
func (r *run) sequential(exec func(o *outcome)) {
	r.outs = make([]*outcome, len(r.jobs))
	for i, j := range r.jobs {
		o := r.newOutcome(j, r.traced(i))
		exec(o)
		r.check(o)
		o.root.stop()
		r.outs[i] = o
	}
}

// warmUp runs and checks the warm-up jobs: part of set-up, outside the
// timed window.
func (r *run) warmUp(exec func(o *outcome)) error {
	for _, j := range r.warm {
		o := r.newOutcome(j, false)
		exec(o)
		r.check(o)
		if o.err != nil {
			return fmt.Errorf("warm-up job %d (%s): %w", j.id, j.class, o.err)
		}
	}
	return nil
}

// simJobs: jobspec.RunLocal in-process, as `ppm-run -spec` runs a sim
// spec.
func (r *run) simJobs() error {
	if err := r.buildRefs(); err != nil {
		return err
	}
	exec := func(o *outcome) {
		s := o.job.spec
		t := time.Now()
		sp := o.call("jobspec", "jobspec.RunLocal")
		o.res, o.err = jobspec.RunLocal(&s)
		sp.stop()
		o.lat = time.Since(t)
	}
	if err := r.setup(func(bool) error { return r.warmUp(exec) }); err != nil {
		return err
	}
	r.timed(0, func() { r.sequential(exec) })
	return nil
}

// distCold: a fresh 2-process fleet per job, as `ppm-run -spec` runs a
// dist spec: dist.LaunchLocal, dist.Merge, jobspec.FromMerged.
func (r *run) distCold() error {
	if err := r.buildRefs(); err != nil {
		return err
	}
	exec := func(o *outcome) {
		s := o.job.spec
		var stderr bytes.Buffer
		t := time.Now()
		payload, err := json.Marshal(&s)
		if err != nil {
			o.err = err
			return
		}
		sp := o.call("dist", "dist.LaunchLocal")
		results, err := dist.LaunchLocal(dist.LaunchOpts{
			Nodes: s.Nodes, NodeBin: r.nodeBin,
			NodeArgs: []string{"-spec-json", string(payload)},
			Stderr:   &stderr,
		})
		sp.stop()
		if err != nil {
			o.err = fmt.Errorf("%w\n%s", err, stderr.String())
			return
		}
		sp = o.call("dist", "dist.Merge")
		m, err := dist.Merge(s.AppSpec(), results)
		sp.stop()
		if err != nil {
			o.err = err
			return
		}
		sp = o.call("jobspec", "jobspec.FromMerged")
		o.res, o.err = jobspec.FromMerged(&s, m)
		sp.stop()
		o.lat = time.Since(t)
	}
	if err := r.setup(func(bool) error { return r.warmUp(exec) }); err != nil {
		return err
	}
	r.timed(r.jobs[0].spec.Nodes, func() { r.sequential(exec) })
	return nil
}

// lockedBuffer collects fleet stderr from several processes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// serve: an in-process server driven over loopback HTTP by closed-loop
// clients, one per default worker. Each job is POST /v1/jobs, then the
// SSE stream followed to its done event, then GET /v1/jobs/{id}.
func (r *run) serve() error {
	if err := r.buildRefs(); err != nil {
		return err
	}
	var stderr lockedBuffer
	var srv *server.Server
	var base string
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
	defer client.CloseIdleConnections()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	exec := func(o *outcome) { r.serveJob(client, base, o) }
	err := r.setup(func(last bool) error {
		srv = server.New(server.Config{NodeBin: r.nodeBin, Stderr: &stderr})
		if err := srv.Start(); err != nil {
			return err
		}
		base = "http://" + srv.Addr()
		// Each client's warm-up spawns its own fleet (the clients' dist
		// specs differ in fleet shape), so warm the clients in turn.
		err := r.warmUp(exec)
		if !last || err != nil {
			stop()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("%w\nfleet stderr:\n%s", err, stderr.b.String())
	}
	defer stop()

	m0, err := fetchMetrics(client, base)
	if err != nil {
		return err
	}
	r.timed(0, func() {
		r.outs = make([]*outcome, len(r.jobs))
		var wg sync.WaitGroup
		for c := 0; c < r.w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(r.jobs); i += r.w.clients {
					o := r.newOutcome(r.jobs[i], r.traced(i/r.w.clients))
					exec(o)
					r.check(o)
					o.root.stop()
					r.outs[i] = o
				}
			}(c)
		}
		wg.Wait()
	})
	m1, err := fetchMetrics(client, base)
	if err != nil {
		return err
	}
	r.layer["server.fleets_spawned"] = metric{float64(m1.Fleets.Spawned - m0.Fleets.Spawned), "count"}
	r.layer["server.fleets_reused"] = metric{float64(m1.Fleets.Reused - m0.Fleets.Reused), "count"}
	r.layer["server.jobs_retried"] = metric{float64(m1.Jobs.Retried - m0.Jobs.Retried), "count"}
	return nil
}

// serveJob runs one job through the HTTP API.
func (r *run) serveJob(client *http.Client, base string, o *outcome) {
	body, err := json.Marshal(server.SubmitRequest{
		Tenant: fmt.Sprintf("client%d", o.job.client), Spec: o.job.spec,
	})
	if err != nil {
		o.err = err
		return
	}
	t := time.Now()
	sp := o.call("server", "POST /v1/jobs")
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	var sub server.SubmitResponse
	if err == nil {
		err = decodeBody(resp, &sub, http.StatusOK, http.StatusAccepted)
	}
	sp.stop()
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return
	}
	o.accepted = time.Now()

	sp = o.call("server", "GET /v1/jobs/{id}/stream")
	status, err := r.follow(client, base, sub.ID, o)
	sp.stop()
	if err != nil {
		o.err = fmt.Errorf("stream: %w", err)
		return
	}
	if status != server.StatusDone {
		o.err = fmt.Errorf("job %s ended %s", sub.ID, status)
		return
	}

	sp = o.call("server", "GET /v1/jobs/{id}")
	resp, err = client.Get(base + "/v1/jobs/" + sub.ID)
	var st server.JobStatus
	if err == nil {
		var raw []byte
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.resultKB = float64(len(raw)) / 1024
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		}
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
	}
	sp.stop()
	o.lat = time.Since(t)
	if err != nil {
		o.err = fmt.Errorf("result: %w", err)
		return
	}
	if st.Result == nil {
		o.err = fmt.Errorf("job %s: done without a result", sub.ID)
		return
	}
	o.res = st.Result
}

// follow reads the job's SSE stream to its done event, timing the phase
// events, and returns the terminal status.
func (r *run) follow(client *http.Client, base, id string, o *outcome) (string, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	sc := bufio.NewScanner(resp.Body)
	var event string
	var last time.Time
	missedStart := false
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var ev struct {
			Status string `json:"status"`
			Phases int64  `json:"phases"`
			Error  string `json:"error"`
		}
		switch event {
		case "status":
			// Phases already committed before the stream opened hide
			// the job's start.
			json.Unmarshal([]byte(data), &ev)
			missedStart = ev.Phases > 0
		case "phase":
			if last.IsZero() {
				if !missedStart {
					o.startMS = ms(now.Sub(o.accepted))
				}
			} else {
				o.phaseGaps = append(o.phaseGaps, ms(now.Sub(last)))
			}
			last = now
		case "done":
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return "", err
			}
			io.Copy(io.Discard, resp.Body)
			if ev.Error != "" {
				return ev.Status, fmt.Errorf("%s", ev.Error)
			}
			return ev.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("stream ended without a done event")
}

func fetchMetrics(client *http.Client, base string) (*server.Metrics, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	var m server.Metrics
	if err := decodeBody(resp, &m, http.StatusOK); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &m, nil
}

// decodeBody decodes a JSON response with one of the wanted codes.
func decodeBody(resp *http.Response, v any, codes ...int) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, c := range codes {
		if resp.StatusCode == c {
			return json.Unmarshal(raw, v)
		}
	}
	return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
}
