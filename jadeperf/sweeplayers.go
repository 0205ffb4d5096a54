package main

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fuse"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/jade/graph"
	"repro/internal/metrics"
	"repro/internal/pgas"
)

// The replay-sweep layer pass re-runs one grid round as the public
// calls ExecuteRuns makes internally — capture, fusion, a VariantSet
// per machine, one VariantSet over the whole group, and per-cell
// ReplayPlanned — each under its own span, on one lane so no two layer
// calls compete for the CPU.

// sweepLayerPass holds the layer pass's sums.
type sweepLayerPass struct {
	captureS, fuseS    float64
	captures           int
	machineS           map[string]float64
	setS, plannedS     float64
	execS              float64
	cells, tasks, msgs int
	simSec             float64
	mismatched         int
}

// layerLane is the lane the layer pass runs on.
const layerLane = width

func sweepLayers(tr *tracer, groups []sweepGroup) (sweepLayerPass, error) {
	lp := sweepLayerPass{machineS: map[string]float64{}}
	// Visit groups by captured graph, so each graph is captured once and
	// only the current one is held (paper-scale graphs are large).
	groups = append([]sweepGroup(nil), groups...)
	sort.SliceStable(groups, func(i, j int) bool { return baseKey(groups[i]) < baseKey(groups[j]) })
	var base string
	var captured *graph.Graph
	for _, g := range groups {
		first := g.cells[0].spec
		place := placed(first)
		if k := baseKey(g); k != base {
			base = k
			lp.captureS += tr.do(layerLane, -1, "graph.Capture", base, func() {
				captured = graph.Capture(first.Procs, true, frontEnd(first.App, place))
			}).Seconds()
			lp.captures++
		}
		gr := captured
		if first.Fusion {
			var err error
			lp.fuseS += tr.do(layerLane, -1, "graph.Fuse", g.key, func() {
				gr, _, err = gr.Fuse(fuse.DefaultOptions())
			}).Seconds()
			if err != nil {
				return lp, fmt.Errorf("replay-sweep: fuse %s: %w", g.key, err)
			}
		}

		specs := make([]experiments.RunSpec, len(g.cells))
		for i, c := range g.cells {
			specs[i] = c.spec
			if err := specs[i].Canonicalize(); err != nil {
				return lp, err
			}
		}
		for _, m := range sweepMachines {
			var vars []graph.Variant
			for _, s := range specs {
				if s.Machine == m {
					vars = append(vars, variant(s))
				}
			}
			if len(vars) > 0 {
				lp.machineS[m] += tr.do(layerLane, -1, "VariantSet.Run."+m, g.key, func() {
					graph.NewVariantSet(gr, vars).Run()
				}).Seconds()
			}
		}
		vars := make([]graph.Variant, len(specs))
		for i, s := range specs {
			vars[i] = variant(s)
		}
		var vrs []graph.VariantResult
		lp.setS += tr.do(layerLane, -1, "VariantSet.Run", g.key, func() {
			vrs = graph.NewVariantSet(gr, vars).Run()
		}).Seconds()
		for i := range specs {
			lp.plannedS += tr.do(layerLane, -1, "Graph.ReplayPlanned", g.cells[i].key, func() {
				// Only its time is wanted: the batched pass above and
				// ExecuteRuns below produce the runs that are checked.
				_, _ = gr.ReplayPlanned(vars[i].Platform(), jade.Config{WorkFree: true})
			}).Seconds()
		}

		var runs []*metrics.Run
		var err error
		lp.execS += tr.do(layerLane, -1, "experiments.ExecuteRuns.warm", g.key, func() {
			runs, err = experiments.NewRunner(1).ExecuteRuns(specs, experiments.PaperScale)
		}).Seconds()
		if err != nil {
			return lp, err
		}
		for i, r := range runs {
			lp.cells++
			lp.tasks += r.TaskCount
			lp.msgs += int(r.MsgCount)
			lp.simSec += r.ExecTime
			v := vrs[i].Run
			if vrs[i].Err != nil || v.ExecTime != r.ExecTime || v.TaskCount != r.TaskCount || v.MsgCount != r.MsgCount {
				lp.mismatched++
			}
		}
	}
	return lp, nil
}

// baseKey names the unfused capture a group's graph derives from.
func baseKey(g sweepGroup) string {
	s := g.cells[0].spec
	return fmt.Sprintf("%s/p%d/place=%t", s.App, s.Procs, placed(s))
}

func (lp sweepLayerPass) report(m metricSet) {
	m.set("graph.capture_s", lp.captureS, "s")
	m.set("graph.captures", float64(lp.captures), "count")
	m.set("graph.fuse_s", lp.fuseS, "s")
	for _, mc := range sweepMachines {
		m.set("replay."+mc+"_s", lp.machineS[mc], "s")
	}
	m.set("replay.ns_per_task", lp.setS*1e9/float64(max(lp.tasks, 1)), "ns")
	m.set("replay.batch_gain", lp.plannedS/lp.setS, "ratio")
	m.set("experiments.overhead_s", lp.execS-lp.setS, "s")
	m.set("cells", float64(lp.cells), "count")
	m.set("tasks", float64(lp.tasks), "count")
	m.set("msgs", float64(lp.msgs), "count")
	m.set("sim_s", lp.simSec, "s")
}

// variant is the VariantSet cell ExecuteRuns builds for a canonical
// spec: a fresh machine per call, fault cells off the lockstep pass.
func variant(s experiments.RunSpec) graph.Variant {
	return graph.Variant{
		Platform:   func() jade.Platform { return newPlatform(s) },
		Cfg:        jade.Config{WorkFree: true},
		Sequential: s.Fault != nil,
	}
}

// newPlatform builds the machine a canonical grid spec runs on, with
// the toggles the grid uses (coalescing, fault injection).
func newPlatform(s experiments.RunSpec) jade.Platform {
	var inj *fault.Injector
	if s.Fault != nil {
		inj = fault.NewInjector(*s.Fault, s.Procs)
	}
	switch s.Machine {
	case "dash":
		lv := map[string]dash.LocalityLevel{experiments.LevelNone: dash.NoLocality,
			experiments.LevelLocality: dash.Locality, experiments.LevelPlacement: dash.TaskPlacement}[s.Level]
		m := dash.New(dash.DefaultConfig(s.Procs, lv))
		m.Inj = inj
		return m
	case "ipsc":
		lv := map[string]ipsc.LocalityLevel{experiments.LevelNone: ipsc.NoLocality,
			experiments.LevelLocality: ipsc.Locality, experiments.LevelPlacement: ipsc.TaskPlacement}[s.Level]
		cfg := ipsc.DefaultConfig(s.Procs, lv)
		cfg.Coalescing = s.Coalescing
		m := ipsc.New(cfg)
		m.Inj = inj
		return m
	case "pgas":
		lv := map[string]pgas.LocalityLevel{experiments.LevelNone: pgas.NoAffinity,
			experiments.LevelLocality: pgas.Affinity, experiments.LevelPlacement: pgas.TaskPlacement}[s.Level]
		m := pgas.New(pgas.DefaultConfig(s.Procs, lv))
		m.Inj = inj
		return m
	}
	return cluster.New(cluster.DefaultConfig(s.Procs))
}
