package main

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. Each workload reports all of them; a layer the workload does
// not exercise reads 0, which is itself the measurement (that rung did
// no work here).
var layerMetrics = []struct{ name, unit string }{
	// paper-tables: the three-call breakdown of every table cell.
	{"frontend.self_s", "s"},
	{"bodies.self_s", "s"},
	{"machine.self_s", "s"},
	{"machine.replay_s", "s"},
	{"render.self_s", "s"},
	// Exact counts: a change meant only to speed the simulator up must
	// keep them identical.
	{"cells", "count"},
	{"tasks", "count"},
	{"msgs", "count"},
	{"sim_s", "s"},
	// replay-sweep: capture, fusion and batched replay per machine.
	{"graph.capture_s", "s"},
	{"graph.captures", "count"},
	{"graph.fuse_s", "s"},
	{"replay.dash_s", "s"},
	{"replay.ipsc_s", "s"},
	{"replay.pgas_s", "s"},
	{"replay.cluster_s", "s"},
	{"replay.ns_per_task", "ns"},
	{"replay.batch_gain", "ratio"},
	{"experiments.overhead_s", "s"},
	{"metrics.report_s", "s"},
	// serve-mix: client, route and serve split, hits and misses apart.
	{"client.self_ms_p50", "ms"},
	{"route.self_ms_p50", "ms"},
	{"route.self_ms_p99", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.hit_ms_p99", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.execute_ms_p50", "ms"},
	{"serve.execute_ms_p99", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.deduped", "count"},
	{"router.hedged", "count"},
	{"router.hedge_wins", "count"},
	{"router.load_shifts", "count"},
	{"req_hit_p50_ms", "ms"},
	{"req_hit_p99_ms", "ms"},
	{"req_miss_p50_ms", "ms"},
	{"req_miss_p99_ms", "ms"},
	{"req_misses", "count"},
	// Every workload: process-wide readings, for information.
	{"failed_frac", "frac"},
	{"req_samples", "count"},
	{"req_p99_beyond", "count"},
	{"unattributed_s", "s"},
	{"trace_overhead_frac", "frac"},
	{"gc.cycles", "count"},
	{"proc.peak_rss_mb", "MB"},
}

// verdict assembles the result line from a run's timed phases.
func verdict(m metricSet, phs ...phase) *result {
	n, failed := 0, 0
	for _, ph := range phs {
		a, f := ph.attempted()
		n, failed = n+a, failed+f
	}
	return &result{Correct: failed == 0, Attempted: max(n, 1), Failed: failed, Metrics: m}
}

// tracedLayers adds the readings every traced run shares, then fills
// every per-layer metric the workload did not set with 0. The sample
// counts describe the untraced phase, whose percentiles are the
// end-to-end ones; trace_overhead_frac compares the traced phase's
// median round with the untraced phase's.
func tracedLayers(m metricSet, untraced, traced phase, tr *tracer) {
	v := verdict(m, untraced, traced)
	m.set("failed_frac", float64(v.Failed)/float64(v.Attempted), "frac")
	m.set("req_samples", float64(len(untraced.lat)), "count")
	m.set("req_p99_beyond", float64(beyond(len(untraced.lat), 0.99)), "count")
	m.set("gc.cycles", float64(traced.gcCycles), "count")
	m.set("proc.peak_rss_mb", peakRSSMB(), "MB")
	m.set("unattributed_s", tr.unattributed(), "s")
	m.set("trace_overhead_frac", medianWall(traced)/medianWall(untraced)-1, "frac")
	for _, l := range layerMetrics {
		if _, ok := m[l.name]; !ok {
			m.set(l.name, 0, l.unit)
		}
	}
}

func medianWall(ph phase) float64 {
	w := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		w[i] = r.wall.Seconds()
	}
	return median(w)
}
