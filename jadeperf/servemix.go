package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/load"
	"repro/internal/router"
	"repro/internal/serve"
)

// serve-mix: the jaderouter -embed 2 topology — router.NewHandler over
// two serve.Servers through LocalBackend, all at their shipped
// defaults — served on loopback HTTP. Two closed-loop clients send
// sync submits on one keep-alive connection each. About 90% of the
// requests are Zipf draws over the warmed load.DefaultSpecs(small)
// keys (cache hits); the rest are fresh seeded small-scale RunSpec
// keys, never repeated within a run (cache misses). With one request
// in ten a miss, p50 sits inside the hit mode and p99 inside the miss
// mode, far from the boundary between the two.

const (
	missShare  = 0.10
	zipfS      = 1.2
	roundReqs  = 2000 // requests per round
	setupReps  = 3    // topologies booted and warmed during set-up
	freshCheck = 64   // every freshCheck-th miss is re-derived directly
	clients    = width
)

// request is one planned submit.
type request struct {
	id    int
	hash  string
	body  []byte
	fresh bool
	spec  *serve.JobSpec
}

// mixPlan is the seeded request sequence: the i-th request is the same
// for a given seed whichever client sends it.
type mixPlan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	zipf  *rand.Zipf
	hot   []request
	seen  map[string]bool
	count int
}

func newMixPlan(seed int64, hot []*serve.JobSpec) (*mixPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &mixPlan{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1)), seen: map[string]bool{}}
	for _, s := range hot {
		r, err := encodeRequest(s)
		if err != nil {
			return nil, err
		}
		p.hot = append(p.hot, r)
		p.seen[r.hash] = true
	}
	return p, nil
}

func encodeRequest(s *serve.JobSpec) (request, error) {
	b, err := json.Marshal(s)
	return request{hash: s.Hash(), body: b, spec: s}, err
}

// next returns the plan's next request.
func (p *mixPlan) next() (request, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	if p.rng.Float64() >= missShare {
		r := p.hot[p.zipf.Uint64()]
		r.id = p.count
		return r, nil
	}
	for {
		s := &serve.JobSpec{Scale: string(experiments.Small), Runs: []experiments.RunSpec{freshRunSpec(p.rng)}}
		if err := s.Canonicalize(); err != nil {
			return request{}, err
		}
		r, err := encodeRequest(s)
		if err != nil {
			return request{}, err
		}
		if p.seen[r.hash] {
			continue
		}
		p.seen[r.hash] = true
		r.id, r.fresh = p.count, true
		return r, nil
	}
}

// freshRunSpec draws one small-scale run: any app on any machine at
// any level and processor count, with the per-machine toggles.
func freshRunSpec(rng *rand.Rand) experiments.RunSpec {
	app := sweepApps[rng.Intn(len(sweepApps))]
	m := sweepMachines[rng.Intn(len(sweepMachines))]
	lv := levels(app, m)
	rs := experiments.RunSpec{App: app, Machine: m, Procs: 1 + rng.Intn(32),
		Level: lv[rng.Intn(len(lv))], WorkFree: rng.Intn(2) == 0}
	tri := func() *bool {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			t := true
			return &t
		}
		f := false
		return &f
	}
	switch m {
	case "ipsc":
		rs.TargetTasks = rng.Intn(17)
		rs.AdaptiveBroadcast = tri()
		rs.ConcurrentFetch = tri()
	case "pgas":
		rs.Aggregation = tri()
	case "cluster":
		rs.SpeedAware = rng.Intn(2) == 0
	}
	return rs
}

// topology is one booted router, its two backends and the loopback
// HTTP server in front of them.
type topology struct {
	servers []*serve.Server
	rt      *router.Router
	hs      *http.Server
	done    chan struct{}
	base    string
	probe   *probe // non-nil in traced mode
}

func bootTopology(traced bool, tr *tracer) (*topology, error) {
	tp := &topology{done: make(chan struct{})}
	var backends []router.Backend
	for i := 0; i < 2; i++ {
		// jaderouter -embed's defaults: 2 workers, a 32-job queue.
		srv := serve.New(serve.Config{Workers: 2, QueueCap: 32, Spans: traced})
		tp.servers = append(tp.servers, srv)
		var b router.Backend = router.NewLocalBackend(fmt.Sprintf("jaded-%d", i), srv)
		if traced {
			b = &tracedBackend{Backend: b, srv: srv, tr: tr}
		}
		backends = append(backends, b)
	}
	// The zero router.Config is jaderouter's flag defaults.
	rt, err := router.NewRouter(router.Config{}, backends...)
	if err != nil {
		tp.shutdownServers()
		return nil, err
	}
	tp.rt = rt
	var h http.Handler = router.NewHandler(rt)
	if traced {
		tp.probe = &probe{tr: tr, reqs: map[int]*reqTiming{}, clients: map[int]float64{}}
		h = &tracedHandler{h: h, p: tp.probe}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tp.close()
		return nil, err
	}
	tp.base = "http://" + ln.Addr().String()
	tp.hs = &http.Server{Handler: h}
	go func() {
		defer close(tp.done)
		_ = tp.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return tp, nil
}

func (tp *topology) shutdownServers() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range tp.servers {
		_ = s.Shutdown(ctx)
	}
}

// close stops the HTTP server, waits for its goroutine, then stops the
// router and the backends.
func (tp *topology) close() {
	if tp.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = tp.hs.Shutdown(ctx)
		cancel()
		<-tp.done
	}
	tp.rt.Close()
	tp.shutdownServers()
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	lane int
	hc   *http.Client
	tr   *http.Transport
}

func newClients() []*client {
	out := make([]*client, clients)
	for i := range out {
		t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		out[i] = &client{lane: i, hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, tr: t}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// submit sends one sync submit and returns the compacted result
// document and the client-side latency.
func (c *client) submit(tp *topology, tr *tracer, r request) ([]byte, bool, time.Duration, error) {
	if tp.probe == nil {
		tr = nil // only a traced topology reads the span header
	}
	req, err := http.NewRequest(http.MethodPost, tp.base+"/v1/jobs?sync=1", bytes.NewReader(r.body))
	if err != nil {
		return nil, false, 0, err
	}
	span := tr.begin(c.lane, -1, "client", fmt.Sprint(r.id))
	if tr != nil {
		req.Header.Set(reqHeader, fmt.Sprintf("%d %d %d", r.id, c.lane, span))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	tr.end(span)
	if tr != nil {
		tp.probe.client(r.id, lat)
	}
	if err != nil {
		return nil, false, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, false, lat, err
	}
	var out bytes.Buffer
	if err := json.Compact(&out, st.Result); err != nil {
		return nil, false, lat, err
	}
	return out.Bytes(), st.CacheHit, lat, nil
}

// warm submits every hot key once and returns the served results.
func warm(tp *topology, c *client, hot []request) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, r := range hot {
		res, _, _, err := c.submit(tp, nil, r)
		if err != nil {
			return nil, fmt.Errorf("serve-mix: warm %s: %w", r.hash[:12], err)
		}
		out[r.hash] = res
	}
	return out, nil
}

// mixState is what a run's rounds share.
type mixState struct {
	plan     *mixPlan
	perRound int
	want     map[string][]byte // hot key → result served at warm-up

	mu      sync.Mutex
	misses  int
	sample  []request // fresh requests re-derived after the phase
	served  [][]byte
	hitLat  []float64
	missLat []float64
}

// mixRound sends perRound requests from the clients.
func (ms *mixState) mixRound(tp *topology, cs []*client, tr *tracer) (round, []float64, error) {
	var (
		mu     sync.Mutex
		sent   int
		r      round
		lat    []float64
		wg     sync.WaitGroup
		planEr error
	)
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			start := time.Now()
			defer func() { tr.window(c.lane, start, time.Now()) }()
			for {
				mu.Lock()
				if sent == ms.perRound || planEr != nil {
					mu.Unlock()
					return
				}
				sent++
				mu.Unlock()
				req, err := ms.plan.next()
				if err != nil {
					mu.Lock()
					planEr = err
					mu.Unlock()
					return
				}
				res, hit, d, err := c.submit(tp, tr, req)
				ok := err == nil
				if err != nil {
					fmt.Fprintf(os.Stderr, "jadeperf: request %d: %v\n", req.id, err)
				} else if !req.fresh {
					ok = bytes.Equal(res, ms.want[req.hash])
				}
				ms.mu.Lock()
				if ok && req.fresh {
					ms.misses++
					if ms.misses%freshCheck == 1 {
						ms.sample = append(ms.sample, req)
						ms.served = append(ms.served, res)
					}
				}
				if ok && hit {
					ms.hitLat = append(ms.hitLat, d.Seconds())
				} else if ok {
					ms.missLat = append(ms.missLat, d.Seconds())
				}
				ms.mu.Unlock()
				mu.Lock()
				r.reqs++
				lat = append(lat, d.Seconds())
				if req.fresh {
					r.cells++
				}
				if !ok {
					r.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return r, lat, planEr
}

// checkFresh re-derives the sampled miss results in process, counts
// those the service answered differently, and clears the sample.
func (ms *mixState) checkFresh() int {
	bad := 0
	for i, r := range ms.sample {
		rep, err := experiments.BuildReportWithRuns(nil, r.spec.Runs, experiments.Small)
		var raw, want bytes.Buffer
		if err == nil {
			err = rep.WriteJSON(&raw)
		}
		if err == nil {
			err = json.Compact(&want, raw.Bytes())
		}
		if err != nil || !bytes.Equal(want.Bytes(), ms.served[i]) {
			bad++
		}
	}
	ms.sample, ms.served = nil, nil
	return bad
}

// setup boots and warms a topology reps times, keeping the last one,
// and returns the median boot-and-warm time. Every boot must serve the
// same results; the first one's become the expected results.
func (ms *mixState) setup(cs []*client, reps int, traced bool, tr *tracer) (*topology, float64, int, error) {
	var tp *topology
	failed := 0
	times := make([]float64, reps)
	for i := range times {
		if tp != nil {
			tp.close()
		}
		t0 := time.Now()
		var err error
		if tp, err = bootTopology(traced, tr); err != nil {
			return nil, 0, 0, err
		}
		got, err := warm(tp, cs[0], ms.plan.hot)
		if err != nil {
			tp.close()
			return nil, 0, 0, err
		}
		times[i] = time.Since(t0).Seconds()
		if ms.want == nil {
			ms.want = got
		}
		for h, b := range got {
			if !bytes.Equal(b, ms.want[h]) {
				failed++
			}
		}
	}
	return tp, median(times), failed, nil
}

// phase runs a timed phase against tp.
func (ms *mixState) phase(budget time.Duration, tp *topology, cs []*client, tr *tracer) (phase, error) {
	var err error
	ms.hitLat, ms.missLat = nil, nil
	ph := runPhase(budget, func() (round, []float64) {
		r, lat, e := ms.mixRound(tp, cs, tr)
		if e != nil && err == nil {
			err = e
		}
		return r, lat
	})
	ph.rounds[0].failed += ms.checkFresh()
	return ph, err
}

func runServeMix(opt options, plan *mixPlan, perRound int) (*result, error) {
	ms := &mixState{plan: plan, perRound: perRound}
	cs := newClients()
	defer closeClients(cs)

	tp, setup, setupFailed, err := ms.setup(cs, setupReps, false, nil)
	if err != nil {
		return nil, err
	}
	before := snapshotCounters(tp)
	ph, err := ms.phase(opt.seconds, tp, cs, nil)
	after := snapshotCounters(tp)
	tp.close()
	if err != nil {
		return nil, err
	}
	ph.rounds[0].failed += setupFailed
	ph.rounds[0].reqs += setupReps * len(plan.hot)
	m := metricSet{}
	if !opt.trace {
		ph.endToEnd(m, setup)
		return verdict(m, ph), nil
	}
	after.sub(before).report(m)
	m.set("req_hit_p50_ms", percentile(ms.hitLat, 0.50)*1e3, "ms")
	m.set("req_hit_p99_ms", percentile(ms.hitLat, 0.99)*1e3, "ms")
	m.set("req_miss_p50_ms", percentile(ms.missLat, 0.50)*1e3, "ms")
	m.set("req_miss_p99_ms", percentile(ms.missLat, 0.99)*1e3, "ms")
	m.set("req_misses", float64(len(ms.missLat)), "count")

	tr := newTracer()
	ttp, _, tFailed, err := ms.setup(cs, 1, true, tr)
	if err != nil {
		return nil, err
	}
	tph, err := ms.phase(opt.seconds, ttp, cs, tr)
	ttp.close()
	if err != nil {
		return nil, err
	}
	tph.rounds[0].failed += tFailed
	ttp.probe.report(m)
	tracedLayers(m, ph, tph, tr)
	if err := tr.write(opt.spansOut); err != nil {
		return nil, err
	}
	return verdict(m, ph, tph), nil
}

func serveMix(opt options) (*result, error) {
	hot, err := load.DefaultSpecs(experiments.Small)
	if err != nil {
		return nil, err
	}
	plan, err := newMixPlan(opt.seed, hot)
	if err != nil {
		return nil, err
	}
	return runServeMix(opt, plan, roundReqs)
}
