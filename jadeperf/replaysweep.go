package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// replay-sweep: a seeded grid of work-free paper-scale RunSpecs run
// through Runner.ExecuteRuns. No task bodies run; graph capture, fusion
// and VariantSet replay do the work. A request is one ExecuteRuns call
// carrying every cell that shares one captured graph (one batch
// group), and two closed-loop callers submit the groups.

var sweepApps = []string{"water", "string", "ocean", "cholesky", "spmv"}
var sweepMachines = []string{"dash", "ipsc", "pgas", "cluster"}

// sweepProcs are the grid's processor counts: the paper's sweep plus
// 12. They are fixed, not drawn from the seed, so every seed's grid is
// the same work and the seed only orders it; the 8 counts × (7
// captures + 5 fused graphs) stay inside the engine's graph cache.
var sweepProcs = []int{1, 2, 4, 8, 12, 16, 24, 32}

// faultSeed pins the drop_pct fault cells' injector seed.
const faultSeed = 7

// sweepCell is one RunSpec of the grid with its digest key.
type sweepCell struct {
	key  string
	spec experiments.RunSpec
}

// sweepCellsFor lists every cell the grid holds at one processor
// count: each app on each machine at each level, plus one
// fusion+coalescing cell and one message-loss cell on the iPSC model.
func sweepCellsFor(procs int) []sweepCell {
	var out []sweepCell
	for _, app := range sweepApps {
		for _, m := range sweepMachines {
			for _, lv := range levels(app, m) {
				out = append(out, sweepCell{
					key:  fmt.Sprintf("%s/%s/%s/p%d", app, m, cmp.Or(lv, "-"), procs),
					spec: experiments.RunSpec{App: app, Machine: m, Procs: procs, Level: lv, WorkFree: true},
				})
			}
		}
		top := levels(app, "ipsc")[0]
		out = append(out,
			sweepCell{
				key: fmt.Sprintf("%s/ipsc/%s/p%d/fused+coalesced", app, top, procs),
				spec: experiments.RunSpec{App: app, Machine: "ipsc", Procs: procs, Level: top,
					WorkFree: true, Fusion: true, Coalescing: true},
			},
			sweepCell{
				key: fmt.Sprintf("%s/ipsc/%s/p%d/drop2pct", app, top, procs),
				spec: experiments.RunSpec{App: app, Machine: "ipsc", Procs: procs, Level: top,
					WorkFree: true, Fault: &fault.Spec{Seed: faultSeed, DropPct: 0.02}},
			})
	}
	return out
}

// sweepGroup is one request: the cells replaying one captured graph.
type sweepGroup struct {
	key   string
	cells []sweepCell
}

// sweepGrid builds the grid as batch groups in the seed's order.
func sweepGrid(seed int64) []sweepGroup {
	var groups []sweepGroup
	index := map[string]int{}
	for _, p := range sweepProcs {
		for _, c := range sweepCellsFor(p) {
			k := graphKey(c.spec)
			i, ok := index[k]
			if !ok {
				i = len(groups)
				index[k] = i
				groups = append(groups, sweepGroup{key: k})
			}
			groups[i].cells = append(groups[i].cells, c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	return groups
}

// graphKey names the captured graph a cell replays, matching how
// ExecuteRuns batches cells.
func graphKey(s experiments.RunSpec) string {
	return fmt.Sprintf("%s/p%d/place=%t/fused=%t", s.App, s.Procs, placed(s), s.Fusion)
}

func placed(s experiments.RunSpec) bool { return s.Level == experiments.LevelPlacement }

// reportDigest hashes a run's jade-metrics/v1 report.
func reportDigest(r *metrics.Report) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// execGroup runs one group through ExecuteRuns and reports its runs.
func execGroup(tr *tracer, lane int, g sweepGroup) ([]*metrics.Run, []*metrics.Report, error) {
	specs := make([]experiments.RunSpec, len(g.cells))
	for i, c := range g.cells {
		specs[i] = c.spec
	}
	var runs []*metrics.Run
	var err error
	tr.do(lane, -1, "experiments.ExecuteRuns", g.key, func() {
		runs, err = experiments.NewRunner(1).ExecuteRuns(specs, experiments.PaperScale)
	})
	if err != nil {
		return nil, nil, err
	}
	reps := make([]*metrics.Report, len(runs))
	tr.do(lane, -1, "Run.Report", g.key, func() {
		for i, r := range runs {
			reps[i] = r.Report()
		}
	})
	return runs, reps, nil
}

// gridDigests records the report digest of every grid cell.
func gridDigests() (map[string]string, error) {
	out := map[string]string{}
	r, _ := sweepRound(nil, sweepGrid(1), checker{}, out)
	if r.failed > 0 {
		return nil, fmt.Errorf("replay-sweep: %d groups failed while recording digests", r.failed)
	}
	return out, nil
}

// sweepRound submits every group from width closed-loop callers. With
// record non-nil it stores digests instead of checking them.
func sweepRound(tr *tracer, groups []sweepGroup, chk checker, record map[string]string) (round, []float64) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
		r    = round{}
	)
	lat := make([]float64, len(groups))
	for lane := 0; lane < width; lane++ {
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
				if i >= len(groups) {
					return
				}
				g := groups[i]
				t0 := time.Now()
				_, reps, err := execGroup(tr, lane, g)
				lat[i] = time.Since(t0).Seconds()
				bad := 0
				if err != nil {
					fmt.Fprintf(os.Stderr, "jadeperf: %s: %v\n", g.key, err)
					bad = len(g.cells)
				}
				for k := 0; err == nil && k < len(reps); k++ {
					d, derr := reportDigest(reps[k])
					key := g.cells[k].key
					switch {
					case derr != nil:
						bad++
					case record != nil:
						mu.Lock()
						record[key] = d
						mu.Unlock()
					case !chk.ok(key, d):
						bad++
					}
				}
				mu.Lock()
				r.reqs++
				r.cells += len(g.cells)
				if bad > 0 {
					r.failed++
				}
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	return r, lat
}

func replaySweep(opt options) (*result, error) {
	want, err := loadDigests("replay-sweep")
	if err != nil {
		return nil, err
	}
	return runReplaySweep(opt, checker{want: want}, sweepGrid(opt.seed))
}

func runReplaySweep(opt options, chk checker, groups []sweepGroup) (*result, error) {
	// Set-up is the first, cold pass: every graph is captured (and
	// fused) once and cached by the engine; later passes replay.
	t0 := time.Now()
	cold, _ := sweepRound(nil, groups, chk, nil)
	setup := time.Since(t0).Seconds()

	pass := func(tr *tracer) func() (round, []float64) {
		return func() (round, []float64) { return sweepRound(tr, groups, chk, nil) }
	}
	ph := runPhase(opt.seconds, pass(nil))
	ph.rounds[0].failed += cold.failed
	ph.rounds[0].reqs += cold.reqs
	m := metricSet{}
	if !opt.trace {
		ph.endToEnd(m, setup)
		return verdict(m, ph), nil
	}

	tr := newTracer()
	tph := runPhase(opt.seconds, pass(tr))
	self := tr.selfTimes()
	m.set("metrics.report_s", self["Run.Report"]/float64(len(tph.rounds)), "s")
	lp, err := sweepLayers(tr, groups)
	if err != nil {
		return nil, err
	}
	tph.rounds[0].failed += lp.mismatched
	tph.rounds[0].reqs += len(groups)
	lp.report(m)
	tracedLayers(m, ph, tph, tr)
	if err := tr.write(opt.spansOut); err != nil {
		return nil, err
	}
	return verdict(m, ph, tph), nil
}
