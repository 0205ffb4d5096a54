package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/load"
)

// The tests run each workload at reduced length: one short table, a
// slice of the sweep grid, and small serve-mix rounds.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range f.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func short(trace bool) options {
	return options{seed: 3, seconds: 200 * time.Millisecond, trace: trace}
}

func committed(t *testing.T, name string) checker {
	t.Helper()
	want, err := loadDigests(name)
	if err != nil {
		t.Fatal(err)
	}
	return checker{want: want}
}

// oneTable is the cheapest paper table (Ocean on DASH).
var oneTable = []paperTable{paperTableSet[2]}

// sweepSlice is a few groups of a seed's grid, fused groups included.
func sweepSlice() []sweepGroup {
	var out []sweepGroup
	for _, g := range sweepGrid(3) {
		if g.cells[0].spec.Procs <= 8 && g.cells[0].spec.App != "cholesky" {
			out = append(out, g)
		}
	}
	return out
}

func runShort(t *testing.T, name string, trace bool) *result {
	t.Helper()
	var res *result
	var err error
	switch name {
	case "paper-tables":
		res, err = runPaperTables(short(trace), committed(t, "paper-tables"), oneTable)
	case "replay-sweep":
		res, err = runReplaySweep(short(trace), committed(t, "replay-sweep"), sweepSlice())
	case "serve-mix":
		hot, herr := load.DefaultSpecs(experiments.Small)
		if herr != nil {
			t.Fatal(herr)
		}
		plan, perr := newMixPlan(3, hot)
		if perr != nil {
			t.Fatal(perr)
		}
		res, err = runServeMix(short(trace), plan, 100)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	endToEnd, perLayer := readBenchmarkFile(t)
	for _, name := range []string{"paper-tables", "replay-sweep", "serve-mix"} {
		for _, trace := range []bool{false, true} {
			res := runShort(t, name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := map[string]string{}
			for n, m := range res.Metrics {
				if !nameRE.MatchString(n) || m.Unit == "" {
					t.Errorf("%s: metric %q has a bad name or no unit (%q)", name, n, m.Unit)
				}
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%t: metrics %v, BENCHMARK.json declares %v", name, trace, keys(got), keys(want))
			}
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"paper-tables", "replay-sweep"} {
		a, b := runShort(t, name, true), runShort(t, name, true)
		for _, n := range []string{"cells", "tasks", "msgs", "sim_s"} {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s: %s differs across runs: %v vs %v", name, n, a.Metrics[n], b.Metrics[n])
			}
		}
		if a.Metrics["cells"].Value == 0 || a.Metrics["tasks"].Value == 0 || a.Metrics["sim_s"].Value == 0 {
			t.Errorf("%s: exact counts not measured: %v", name, a.Metrics)
		}
	}
}

func TestPlantedMismatchRaisesFailedFrac(t *testing.T) {
	plant := func(c checker, key string) checker {
		want := map[string]string{}
		for k, v := range c.want {
			want[k] = v
		}
		want[key] = "0000000000000000"
		return checker{want: want}
	}
	groups := sweepSlice()
	res, err := runReplaySweep(short(true), plant(committed(t, "replay-sweep"), groups[0].cells[0].key), groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Metrics["failed_frac"].Value <= 0 {
		t.Errorf("replay-sweep: planted mismatch not caught: %+v", res)
	}
	res, err = runPaperTables(short(false), plant(committed(t, "paper-tables"), oneTable[0].id), oneTable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("paper-tables: planted mismatch not caught: %+v", res)
	}
}

// TestDigestsSameAtWidth1And2 checks that the committed digests hold at
// fan-out width 1 as well as 2.
func TestDigestsSameAtWidth1And2(t *testing.T) {
	tables, cells := committed(t, "paper-tables"), committed(t, "replay-sweep")
	var specs []experiments.RunSpec
	var keysOf []string
	for _, g := range sweepSlice()[:6] {
		for _, c := range g.cells {
			specs = append(specs, c.spec)
			keysOf = append(keysOf, c.key)
		}
	}
	defer experiments.SetParallelism(width)
	for _, w := range []int{1, 2} {
		experiments.SetParallelism(w)
		text, _, err := renderTable(nil, 0, oneTable[0].id)
		if err != nil {
			t.Fatal(err)
		}
		if !tables.ok(oneTable[0].id, digest([]byte(text))) {
			t.Errorf("width %d: %s digest differs", w, oneTable[0].id)
		}
		runs, err := experiments.NewRunner(w).ExecuteRuns(specs, experiments.PaperScale)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			d, err := reportDigest(r.Report())
			if err != nil || !cells.ok(keysOf[i], d) {
				t.Errorf("width %d: %s digest differs", w, keysOf[i])
			}
		}
	}
}

func TestSelfTimeAndUnattributed(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Lane: 0, Name: "a", Start: 1, End: 5},
		{ID: 1, Parent: 0, Lane: 0, Name: "b", Start: 2, End: 3},
		{ID: 2, Parent: 0, Lane: 0, Name: "b", Start: 2.5, End: 4}, // overlaps its sibling
	}
	tr.lanes[0] = [][2]float64{{0, 6}}
	self := tr.selfTimes()
	if self["a"] != 2 || self["b"] != 2.5 {
		t.Errorf("self times %v, want a=2 b=2.5", self)
	}
	if u := tr.unattributed(); u != 2 {
		t.Errorf("unattributed %v, want 2", u)
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if p := percentile(v, 0.99); p != 990 {
		t.Errorf("p99 = %v, want 990", p)
	}
	if b := beyond(len(v), 0.99); b != 10 {
		t.Errorf("beyond = %d, want 10", b)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
