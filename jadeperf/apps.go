package main

import (
	"sync"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/ocean"
	"repro/internal/apps/spmv"
	"repro/internal/apps/tomo"
	"repro/internal/apps/water"
	"repro/internal/experiments"
	"repro/internal/jade"
)

// The traced runs call graph.Capture directly, so they need each
// application's front-end as a public function: the same Run call and
// paper-scale configuration the experiment drivers use. The Cholesky
// and SpMV inputs are built once per process here, as the drivers do.

var (
	cholOnce sync.Once
	cholWL   *cholesky.Workload
	spmvOnce sync.Once
	spmvWL   *spmv.Workload
)

func choleskyWorkload() *cholesky.Workload {
	cholOnce.Do(func() { cholWL = cholesky.NewWorkload(cholesky.Paper()) })
	return cholWL
}

func spmvWorkload() *spmv.Workload {
	spmvOnce.Do(func() { spmvWL = spmv.NewWorkload(spmv.Paper()) })
	return spmvWL
}

// frontEnd returns the paper-scale program of a canonical RunSpec app.
func frontEnd(app string, place bool) func(*jade.Runtime) {
	switch app {
	case "water":
		return func(rt *jade.Runtime) { water.Run(rt, water.Paper()) }
	case "string":
		return func(rt *jade.Runtime) { tomo.Run(rt, tomo.Paper()) }
	case "ocean":
		return func(rt *jade.Runtime) {
			cfg := ocean.Paper()
			cfg.Place = place
			ocean.Run(rt, cfg)
		}
	case "cholesky":
		wl := choleskyWorkload()
		return func(rt *jade.Runtime) {
			cfg := cholesky.Paper()
			cfg.Place = place
			cholesky.Run(rt, cfg, wl)
		}
	case "spmv":
		wl := spmvWorkload()
		return func(rt *jade.Runtime) { spmv.Run(rt, spmv.Paper(), wl) }
	}
	panic("jadeperf: unknown app " + app)
}

// hasPlacement reports whether the app supports explicit placement
// (the placement level), as RunSpec validation does.
func hasPlacement(app string) bool { return app == "ocean" || app == "cholesky" }

// levels lists the app's locality levels on a machine, highest first;
// the cluster model has none.
func levels(app, machine string) []string {
	if machine == "cluster" {
		return []string{""}
	}
	if hasPlacement(app) {
		return []string{experiments.LevelPlacement, experiments.LevelLocality, experiments.LevelNone}
	}
	return []string{experiments.LevelLocality, experiments.LevelNone}
}
