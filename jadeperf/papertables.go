package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/experiments"
	"repro/internal/jade"
	"repro/internal/jade/graph"
	"repro/internal/table"
)

// paper-tables: one pass over four paper-scale tables through
// experiments.Run, every cell executing real task bodies on the direct
// path. A request is the whole pass, as one jadebench invocation over
// the four tables would be: its tables take from one to eleven seconds
// each, so a percentile over single tables would only say which table
// ranked where. The seed permutes the table order.

// paperTable is one table of the pass and the RunSpec cells behind it.
type paperTable struct {
	id, app, machine string
}

var paperTableSet = []paperTable{
	{"table2", "water", "dash"},     // Water on DASH
	{"table8", "string", "ipsc"},    // String on the iPSC/860
	{"table4", "ocean", "dash"},     // Ocean on DASH
	{"table10", "cholesky", "ipsc"}, // Panel Cholesky on the iPSC/860
}

// setupTables fill the shared Cholesky workload the pass reads.
var setupTables = []string{"table1", "table6"}

// tableCell is one (level, procs) cell of a table.
type tableCell struct {
	table     string
	row, col  int
	spec      experiments.RunSpec
	rendering string // the rendered cell the direct Execute must reproduce
}

func (t paperTable) cells() []tableCell {
	var out []tableCell
	for r, lv := range levels(t.app, t.machine) {
		for k, p := range experiments.Procs {
			out = append(out, tableCell{table: t.id, row: r, col: k + 1,
				spec: experiments.RunSpec{App: t.app, Machine: t.machine, Procs: p, Level: lv}})
		}
	}
	return out
}

// renderTable runs one table and renders it as text.
func renderTable(tr *tracer, lane int, id string) (string, *experiments.Result, error) {
	var res *experiments.Result
	var err error
	tr.do(lane, -1, "experiments.Run", id, func() { res, err = experiments.Run(id, experiments.PaperScale) })
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	tr.do(lane, -1, "Result.Render", id, func() { res.Render(&b) })
	return b.String(), res, nil
}

// tableDigests renders the setup and pass tables once.
func tableDigests() (map[string]string, error) {
	out := map[string]string{}
	for _, id := range setupTables {
		text, _, err := renderTable(nil, 0, id)
		if err != nil {
			return nil, err
		}
		out[id] = digest([]byte(text))
	}
	for _, t := range paperTableSet {
		text, _, err := renderTable(nil, 0, t.id)
		if err != nil {
			return nil, err
		}
		out[t.id] = digest([]byte(text))
	}
	return out, nil
}

func paperTables(opt options) (*result, error) {
	want, err := loadDigests("paper-tables")
	if err != nil {
		return nil, err
	}
	return runPaperTables(opt, checker{want: want}, paperTableSet)
}

func runPaperTables(opt options, chk checker, set []paperTable) (*result, error) {
	order := make([]paperTable, len(set))
	for i, j := range rand.New(rand.NewSource(opt.seed)).Perm(len(set)) {
		order[i] = set[j]
	}
	ncells := 0
	for _, t := range order {
		ncells += len(t.cells())
	}

	// Set-up: the serial/stripped tables fill the shared Cholesky
	// workload. The cold build of that workload is the set-up cost; it
	// is timed five times and the median reported, because one build
	// takes only tens of milliseconds.
	setupFailed := 0
	for _, id := range setupTables {
		text, _, err := renderTable(nil, 0, id)
		if err != nil {
			return nil, err
		}
		if !chk.ok(id, digest([]byte(text))) {
			setupFailed++
		}
	}
	setup := medianOf(5, func() { cholesky.NewWorkload(cholesky.Paper()) })

	var last map[string]*experiments.Result
	pass := func(tr *tracer) func() (round, []float64) {
		return func() (round, []float64) {
			r := round{cells: ncells, reqs: 1}
			last = map[string]*experiments.Result{}
			start := time.Now()
			for _, t := range order {
				text, res, err := renderTable(tr, 0, t.id)
				if err != nil || !chk.ok(t.id, digest([]byte(text))) {
					r.failed = 1
					continue
				}
				last[t.id] = res
			}
			end := time.Now()
			tr.window(0, start, end)
			return r, []float64{end.Sub(start).Seconds()}
		}
	}
	ph := runPhase(opt.seconds, pass(nil))
	ph.rounds[0].failed += setupFailed
	ph.rounds[0].reqs += len(setupTables)
	m := metricSet{}
	if !opt.trace {
		ph.endToEnd(m, setup)
		return verdict(m, ph), nil
	}

	tr := newTracer()
	tph := runPhase(opt.seconds, pass(tr))
	self := tr.selfTimes()
	n := float64(len(tph.rounds))
	m.set("render.self_s", self["Result.Render"]/n, "s")

	// Re-run every cell as three public calls: a work-free capture (the
	// application front-end alone), a capture with task bodies (front
	// end plus bodies), and the direct Execute (front end, bodies and
	// machine model). Differences of the sums give each layer's time.
	// The machine model is also timed on its own, replaying the
	// work-free graph, because bodies dwarf it in the difference.
	cells := []tableCell{}
	for _, t := range order {
		for _, c := range t.cells() {
			if res := last[t.id]; res != nil {
				c.rendering = res.Rows[c.row][c.col]
			}
			cells = append(cells, c)
		}
	}
	d := decompose(tr, cells)
	for _, c := range d.mismatched {
		fmt.Fprintf(os.Stderr, "jadeperf: %s %s/%d/%s: Execute disagrees with the rendered table\n",
			c.table, c.spec.Machine, c.spec.Procs, c.spec.Level)
	}
	tph.rounds[0].failed += len(d.mismatched)
	tph.rounds[0].reqs += len(cells)
	self = tr.selfTimes()
	m.set("frontend.self_s", self["graph.Capture.workfree"], "s")
	m.set("bodies.self_s", self["graph.Capture.bodies"]-self["graph.Capture.workfree"], "s")
	m.set("machine.self_s", self["RunSpec.Execute"]-self["graph.Capture.bodies"], "s")
	m.set("machine.replay_s", self["Graph.ReplayPlanned"], "s")
	m.set("cells", float64(len(cells)), "count")
	m.set("tasks", float64(d.tasks), "count")
	m.set("sim_s", d.simSec, "s")
	tracedLayers(m, ph, tph, tr)
	if err := tr.write(opt.spansOut); err != nil {
		return nil, err
	}
	return verdict(m, ph, tph), nil
}

type decomposition struct {
	tasks      int
	simSec     float64
	mismatched []tableCell
}

// decompose runs the three-call breakdown over the cells on width
// lanes. Sums are taken in cell order afterwards, so sim_s repeats
// bit for bit whatever order the lanes finish in.
func decompose(tr *tracer, cells []tableCell) decomposition {
	var (
		mu    sync.Mutex
		next  int
		wg    sync.WaitGroup
		tasks = make([]int, len(cells))
		sims  = make([]float64, len(cells))
		oks   = make([]bool, len(cells))
	)
	choleskyWorkload()
	spmvWorkload()
	for lane := 1; lane <= width; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			start := time.Now()
			defer func() { tr.window(lane, start, time.Now()) }()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cells) {
					return
				}
				c := cells[i]
				s := c.spec
				place := s.Level == experiments.LevelPlacement
				req := fmt.Sprintf("%s/%s/%d/%s", c.table, s.Machine, s.Procs, s.Level)
				var g *graph.Graph
				tr.do(lane, -1, "graph.Capture.workfree", req, func() { g = graph.Capture(s.Procs, true, frontEnd(s.App, place)) })
				tr.do(lane, -1, "Graph.ReplayPlanned", req, func() {
					// Timed only: the machine model driven by the cell's
					// op stream, without front end or bodies.
					_, _ = g.ReplayPlanned(newPlatform(s), jade.Config{WorkFree: true})
				})
				tr.do(lane, -1, "graph.Capture.bodies", req, func() { graph.Capture(s.Procs, false, frontEnd(s.App, place)) })
				tr.do(lane, -1, "RunSpec.Execute", req, func() {
					r, err := s.Execute(experiments.PaperScale)
					if err == nil {
						tasks[i], sims[i] = r.TaskCount, r.ExecTime
						oks[i] = table.Cell(r.ExecTime) == c.rendering
					}
				})
			}
		}(lane)
	}
	wg.Wait()
	var d decomposition
	for i, c := range cells {
		d.tasks += tasks[i]
		d.simSec += sims[i]
		if !oks[i] {
			d.mismatched = append(d.mismatched, c)
		}
	}
	return d
}
