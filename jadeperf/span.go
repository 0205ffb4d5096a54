package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them out once, at the end of
// a traced run. Spans are recorded in the benchmark's own code around
// calls into each layer's public functions; the program itself carries
// no tracing. A nil *tracer records nothing, so untraced code paths
// call the same helpers.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	lanes map[int][][2]float64 // lane → traced windows, seconds
}

// span is one recorded interval. Lane identifies the caller goroutine
// the span ran on; Req names the request or cell it served.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a lane's top-level spans
	Lane   int     `json:"lane"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: map[int][][2]float64{}} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(lane, parent int, name, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Lane: lane, Name: name, Req: req, Start: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// do records fn as one span and returns its duration.
func (t *tracer) do(lane, parent int, name, req string, fn func()) time.Duration {
	id := t.begin(lane, parent, name, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// window marks an interval a lane was busy with traced work; time in
// it that no top-level span covers is reported as unattributed.
func (t *tracer) window(lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lanes[lane] = append(t.lanes[lane], [2]float64{start.Sub(t.t0).Seconds(), end.Sub(t.t0).Seconds()})
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it its children cover. Children of
// one span may overlap (concurrent calls), so coverage is their union.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// unattributed is the traced lanes' busy time that no top-level span
// covers, in seconds.
func (t *tracer) unattributed() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	top := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			top[s.Lane] = append(top[s.Lane], [2]float64{s.Start, s.End})
		}
	}
	total := 0.0
	for lane, ws := range t.lanes {
		for _, w := range ws {
			total += (w[1] - w[0]) - covered(top[lane], w[0], w[1])
		}
	}
	return total
}

// covered is the length of the union of intervals, clipped to [a, b].
func covered(iv [][2]float64, a, b float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	sum, cur := 0.0, a
	for _, x := range iv {
		lo, hi := max(x[0], cur), min(x[1], b)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// write saves every span as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"jadeperf-spans/v1", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// now is the time since the tracer started, in seconds.
func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }
