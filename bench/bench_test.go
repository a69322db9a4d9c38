package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"htapxplain/internal/explainsvc"
)

// TestMain lets the test binary stand in for the benchmark's binary where a
// run starts itself again: as the calibrator (speed.go).
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" && os.Args[2] == "calibrate" {
		if err := calibrate(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the schema of /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheProgram keeps /BENCHMARK.json and the tables
// and constants in defs.go in step. UPDATE_BENCHMARK_JSON=1 rewrites the
// file from them, keeping its command and paths.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var have benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&have); err != nil {
		t.Fatal(err)
	}
	want := have
	want.Workloads = nil
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	want.EndToEnd, want.PerLayer, want.RunSeconds = endToEnd, perLayer, runSeconds
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(have, want) {
		t.Errorf("BENCHMARK.json differs from defs.go; run the test with UPDATE_BENCHMARK_JSON=1")
	}

	// the limits the benchmark's contract sets
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range have.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range have.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	for _, d := range append(append([]metricDef{}, have.EndToEnd...), have.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range have.PerLayer {
		check(d.Name)
	}
	if n := len(have.Workloads); n < 2 || n > 8 || len(have.EndToEnd) > 16 || len(have.PerLayer) > 128 {
		t.Error("too many or too few workloads or metrics")
	}
	// 4 + 22 runs per workload, with their set-ups, inside 3420 s
	runs := 4 + 22*len(have.Workloads)
	if perRun := 3420 / float64(runs); float64(have.RunSeconds)+8 > perRun {
		t.Errorf("run_seconds %d leaves no room for set-up in the %.1f s a run may take", have.RunSeconds, perRun)
	}
}

// TestEveryWorkloadSmoke runs each workload briefly, untraced and traced,
// on small data, and checks what the runs emit.
func TestEveryWorkloadSmoke(t *testing.T) {
	for i := range workloads {
		def := workloads[i]
		def.Scale = 0.002
		if def.KBSize > 0 {
			def.KBSize = 200
		}
		if def.TPLiterals > 0 {
			def.TPLiterals = 4
		}
		if def.APLiterals > 0 {
			def.APLiterals = 2
		}
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			tmp := t.TempDir()
			o := runOptions{def: &def, seed: 7, seconds: 0.3, tmpRoot: tmp,
				boot: explainsvc.BootstrapConfig{TrainQueries: 30, Epochs: 6, KBSize: 20}}
			rep, err := runUntraced(o)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, rep, endToEnd)

			o.traced, o.spans = true, filepath.Join(tmp, "spans.json")
			rep, err = runTraced(o)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, rep, perLayer)
			checkSpans(t, o.spans)

			if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 1 {
				t.Errorf("the runs left %d entries behind in their temp dir, want only the span file (%v)", len(entries), err)
			}
		})
	}
}

func checkRun(t *testing.T, rep *runReport, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("correct %v, attempted %d, failed %d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s was not emitted", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s is %v", d.Name, v.Value)
		case v.NA != "" && v.Value != 0:
			t.Errorf("%s does not apply yet has the value %v", d.Name, v.Value)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("span file: %v", err)
	}
	ids := map[int64]bool{}
	names := map[string]int{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("span ID %d is used twice", s.ID)
		}
		ids[s.ID] = true
		names[s.Name]++
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d (%s) names the parent %d, which is not in the file", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, want := range []string{"client.request", "http.handler", "gateway.serve", "probe.sqlparser.Fingerprint"} {
		if names[want] == 0 {
			t.Errorf("no %s span in the file", want)
		}
	}
}

// TestReferencesSurviveTheirFile covers the way an untraced run gets its
// references, from the child process that computed them: a reference with
// no rows must stay apart from one whose rows were not kept.
func TestReferencesSurviveTheirFile(t *testing.T) {
	wrote := readStream(7, tpTemplates, 2)
	for i, s := range wrote.reads {
		s.ref = &reference{RowCount: i, Rows: []string{"a" + cellSep + "1.5"}, Winner: "AP"}
	}
	wrote.reads[0].ref.Rows = []string{}
	wrote.reads[1].ref = &reference{RowCount: replyRowLimit + 1, Winner: "TP"}
	path := filepath.Join(t.TempDir(), "refs.json")
	if err := writeReferences(path, wrote); err != nil {
		t.Fatal(err)
	}
	read := readStream(7, tpTemplates, 2)
	if err := loadReferences(path, read); err != nil {
		t.Fatal(err)
	}
	for i, s := range read.reads {
		if !reflect.DeepEqual(s.ref, wrote.reads[i].ref) {
			t.Errorf("read %d: reference %+v came back as %+v", i, wrote.reads[i].ref, s.ref)
		}
	}
	if err := loadReferences(path, readStream(8, tpTemplates, 2)); err == nil {
		t.Error("the references of seed 7 were accepted for the reads of seed 8")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles are %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareFlagsWorseAndUnresolved(t *testing.T) {
	run := func(rps float64) *runReport {
		rep := &runReport{Correct: true, Attempted: 100, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			rep.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		rep.Metrics["throughput_rps"] = metricValue{Value: rps, Unit: "req/s"}
		return rep
	}
	write := func(name string, runs ...*runReport) string {
		doc := fullDoc{Workloads: []workloadDoc{{Name: "tp_point", Untraced: runs}}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", run(1000))
	var out bytes.Buffer
	if worse, err := compareReports(&out, base, write("same.json", run(990))); err != nil || worse {
		t.Errorf("a 1%% loss was reported as worse (%v):\n%s", err, out.String())
	}
	if worse, err := compareReports(&out, base, write("slow.json", run(700))); err != nil || !worse {
		t.Errorf("a 30%% loss was not reported as worse (%v):\n%s", err, out.String())
	}
	out.Reset()
	noisy := write("noisy.json", run(500), run(1000), run(1500), run(2000), run(700))
	if worse, err := compareReports(&out, base, noisy); err != nil || worse || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("runs that spread wider than the bound were not unresolved (%v):\n%s", err, out.String())
	}
}
