package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/svcobs"
)

// Traced serve-mix wraps the router's HTTP handler and each backend in
// benchmark-side types. The client's span id travels in a request
// header, so the handler span nests under the client span and each
// backend Submit under the handler span: client self time is the
// loopback transport, handler self time is routing, Submit time is the
// serving tier. Misses add the serving tier's own queue-wait and
// execute phases, read from the job's jade-span/v1 trace.

const reqHeader = "X-Jadeperf-Req"

// reqTiming is one traced request's server-side breakdown.
type reqTiming struct {
	mu        sync.Mutex
	handler   [2]float64   // ServeHTTP interval, seconds since the tracer's start
	submits   [][2]float64 // Backend.Submit intervals (hedges overlap)
	hitSubmit []float64    // durations of Submits answered from the cache
	queueWait []float64    // miss phases, seconds
	execute   []float64
}

// probe collects every traced request's timings.
type probe struct {
	tr      *tracer
	mu      sync.Mutex
	reqs    map[int]*reqTiming
	clients map[int]float64 // request id → client-side latency, seconds
}

func (p *probe) client(id int, lat time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clients[id] = lat.Seconds()
}

type ctxKey struct{}

// reqCtx travels in the request context from the handler wrapper to the
// backend wrapper.
type reqCtx struct {
	t          *reqTiming
	lane, span int
}

type tracedHandler struct {
	h http.Handler
	p *probe
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var id, lane, parent int
	if _, err := fmt.Sscanf(r.Header.Get(reqHeader), "%d %d %d", &id, &lane, &parent); err != nil {
		th.h.ServeHTTP(w, r)
		return
	}
	rt := &reqTiming{}
	span := th.p.tr.begin(lane, parent, "router.Handler.ServeHTTP", strconv.Itoa(id))
	ctx := context.WithValue(r.Context(), ctxKey{}, &reqCtx{t: rt, lane: lane, span: span})
	start := th.p.tr.now()
	th.h.ServeHTTP(w, r.WithContext(ctx))
	th.p.tr.end(span)
	rt.mu.Lock()
	rt.handler = [2]float64{start, th.p.tr.now()}
	rt.mu.Unlock()
	th.p.mu.Lock()
	th.p.reqs[id] = rt
	th.p.mu.Unlock()
}

type tracedBackend struct {
	router.Backend
	srv *serve.Server
	tr  *tracer
}

func (b *tracedBackend) Submit(ctx context.Context, spec *serve.JobSpec, sync bool, traceID string) (*serve.JobStatus, error) {
	rc, _ := ctx.Value(ctxKey{}).(*reqCtx)
	if rc == nil {
		return b.Backend.Submit(ctx, spec, sync, traceID)
	}
	span := b.tr.begin(rc.lane, rc.span, "Backend.Submit", b.Name())
	start := b.tr.now()
	st, err := b.Backend.Submit(ctx, spec, sync, traceID)
	b.tr.end(span)
	end := b.tr.now()
	var qw, ex float64
	var miss bool
	if err == nil && !st.CacheHit {
		if doc, derr := b.srv.TraceDoc(st.ID); derr == nil {
			qw, ex, miss = phaseSecs(doc.Root, "queue_wait"), phaseSecs(doc.Root, "execute"), true
		}
	}
	rc.t.mu.Lock()
	defer rc.t.mu.Unlock()
	rc.t.submits = append(rc.t.submits, [2]float64{start, end})
	switch {
	case err == nil && st.CacheHit:
		rc.t.hitSubmit = append(rc.t.hitSubmit, end-start)
	case miss:
		rc.t.queueWait = append(rc.t.queueWait, qw)
		rc.t.execute = append(rc.t.execute, ex)
	}
	return st, err
}

// phaseSecs sums the durations of the named spans in a job's trace.
func phaseSecs(s *svcobs.SpanDoc, name string) float64 {
	if s == nil {
		return 0
	}
	sum := 0.0
	if s.Name == name {
		sum += s.DurationSec
	}
	for _, c := range s.Children {
		sum += phaseSecs(c, name)
	}
	return sum
}

// report turns the collected timings into the serve-mix layer metrics.
func (p *probe) report(m metricSet) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var client, route, hit, qw, ex []float64
	for id, t := range p.reqs {
		t.mu.Lock()
		h := t.handler[1] - t.handler[0]
		if c, ok := p.clients[id]; ok {
			client = append(client, c-h)
		}
		route = append(route, h-covered(t.submits, t.handler[0], t.handler[1]))
		hit = append(hit, t.hitSubmit...)
		qw = append(qw, t.queueWait...)
		ex = append(ex, t.execute...)
		t.mu.Unlock()
	}
	ms := func(v []float64, q float64) float64 { return percentile(v, q) * 1e3 }
	m.set("client.self_ms_p50", ms(client, 0.5), "ms")
	m.set("route.self_ms_p50", ms(route, 0.5), "ms")
	m.set("route.self_ms_p99", ms(route, 0.99), "ms")
	m.set("serve.hit_ms_p50", ms(hit, 0.5), "ms")
	m.set("serve.hit_ms_p99", ms(hit, 0.99), "ms")
	m.set("serve.queue_wait_ms_p99", ms(qw, 0.99), "ms")
	m.set("serve.execute_ms_p50", ms(ex, 0.5), "ms")
	m.set("serve.execute_ms_p99", ms(ex, 0.99), "ms")
}

// counters is a snapshot of the program's own serving counters.
type counters struct {
	hits, misses, rejected, deduped float64
	hedged, hedgeWins, loadShifts   float64
}

func snapshotCounters(tp *topology) counters {
	var c counters
	for _, s := range tp.servers {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil))
		var doc serve.Metrics
		if json.Unmarshal(rec.Body.Bytes(), &doc) != nil {
			continue
		}
		c.hits += float64(doc.CacheHits)
		c.misses += float64(doc.CacheMisses)
		c.rejected += float64(doc.JobsRejected)
		c.deduped += float64(doc.JobsDeduped)
	}
	rc := tp.rt.Counters()
	c.hedged, c.hedgeWins, c.loadShifts = float64(rc.Hedged), float64(rc.HedgeWins), float64(rc.LoadShifts)
	return c
}

func (c counters) sub(o counters) counters {
	return counters{c.hits - o.hits, c.misses - o.misses, c.rejected - o.rejected, c.deduped - o.deduped,
		c.hedged - o.hedged, c.hedgeWins - o.hedgeWins, c.loadShifts - o.loadShifts}
}

func (c counters) report(m metricSet) {
	m.set("serve.cache_hit_ratio", c.hits/max(c.hits+c.misses, 1), "ratio")
	m.set("serve.rejected", c.rejected, "count")
	m.set("serve.deduped", c.deduped, "count")
	m.set("router.hedged", c.hedged, "count")
	m.set("router.hedge_wins", c.hedgeWins, "count")
	m.set("router.load_shifts", c.loadShifts, "count")
}
