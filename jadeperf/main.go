// Command jadeperf is the repository benchmark: three workloads that
// each stress a different rung of the layer ladder (sim engine →
// synchronizer → machine model → capture/plan/VariantSet → render →
// serve/route), one command that prints every end-to-end metric by
// name with its unit, and a separate traced mode that records spans
// around calls into each layer's public functions and reports per-layer
// self times.
//
//	go run . --workload paper-tables|replay-sweep|serve-mix --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for what each
// workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
)

// width is the fan-out width and GOMAXPROCS every workload runs at:
// the benchmark host's core count, fixed so that results do not depend
// on the core count of the host.
const width = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// spansOut receives the traced run's spans; empty keeps them in
	// memory only (tests).
	spansOut string
}

// workload runs one workload and returns its verdict.
type workload func(opt options) (*result, error)

var workloads = map[string]workload{
	"paper-tables": paperTables,
	"replay-sweep": replaySweep,
	"serve-mix":    serveMix,
}

func main() {
	name := flag.String("workload", "", "workload: paper-tables, replay-sweep or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "timed-phase budget in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	writeDigests := flag.Bool("write-digests", false, "recompute the committed digest files under digests/ and exit")
	flag.Parse()

	runtime.GOMAXPROCS(width)
	experiments.SetParallelism(width)
	if *writeDigests {
		if err := regenerateDigests(); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "jadeperf: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", names)
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if opt.trace {
		opt.spansOut = fmt.Sprintf(".bench_build/jadeperf/spans-%s-seed%d.json", *name, *seed)
	}
	res, err := run(opt)
	if err != nil {
		fatal(err)
	}
	for _, n := range sortedNames(res.Metrics) {
		fmt.Fprintf(os.Stderr, "  %-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func sortedNames(m metricSet) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "jadeperf: %v\n", err)
	os.Exit(1)
}
