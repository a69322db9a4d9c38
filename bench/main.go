// Command bench is the repository's benchmark: it builds the HTAP server
// in-process the way cmd/htapserve does, serves it on a loopback socket,
// drives it closed-loop over two keep-alive HTTP connections, checks every
// reply, and reports end-to-end and per-layer metrics by name. See
// README.md in this directory.
//
//	go run ./bench --workload tp_point --seed 7 --seconds 16 --trace 0
//	    one run; the last line of standard output is the result as JSON
//	    (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
//	go run ./bench -out BENCH.json [-seed 7] [-workload all] [-repeat 1]
//	    the full report: every workload in fresh child processes
//	go run ./bench -compare a.json b.json
//	    two reports side by side; exits 1 if b is worse than a
//
// A run starts this binary again, with -child, for its calibrator
// (speed.go) and for the set-ups it wants in fresh processes (run.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// tmpRoot holds data directories, crash images, reference files and child
// reports. It is relative to the working directory, which the benchmark
// never leaves.
const tmpRoot = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all (with -out)")
		seed     = flag.Int64("seed", 7, "seed of every generator: statements, router training, KB inflation, HNSW")
		seconds  = flag.Float64("seconds", 0, "measured seconds of a single run; the benchmark's own runs are all runSeconds long")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
		out      = flag.String("out", "", "write the full report here (and spans to <out>.spans.json)")
		repeat   = flag.Int("repeat", 1, "with -out: untraced runs per workload, for a spread")
		compare  = flag.Bool("compare", false, "compare two reports given as arguments")
		report   = flag.String("report", "", "single run: also write the run's report here")
		spans    = flag.String("spans", "", "single traced run: write the spans here")
		child    = flag.String("child", "", "what a run starts this binary as: calibrate (speed.go) or setup (run.go)")
		refs     = flag.String("refs", "", "-child setup: also compute the reference answers and write them here")
	)
	flag.Parse()
	var err error
	switch {
	case *child == "calibrate":
		err = calibrate()
	case *child == "setup":
		err = setupChild(*workload, *seed, *seconds, *refs)
	case *child != "":
		err = fmt.Errorf("unknown -child %q", *child)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
			break
		}
		var worse bool
		if worse, err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *out != "":
		err = fullReport(*out, *workload, *seed, *repeat)
	default:
		err = singleRun(*workload, *seed, *seconds, *trace != 0, *report, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are a real run's options; the smoke test builds smaller ones.
func options(workload string, seed int64, seconds float64) (runOptions, error) {
	def := workloadByName(workload)
	if def == nil {
		return runOptions{}, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return runOptions{}, fmt.Errorf("-seconds must be positive")
	}
	return runOptions{def: def, seed: seed, seconds: seconds, tmpRoot: tmpRoot, freshSetups: setupRounds - 1, boot: htapserveBootstrap}, nil
}

func singleRun(workload string, seed int64, seconds float64, traced bool, reportPath, spansPath string) error {
	o, err := options(workload, seed, seconds)
	if err != nil {
		return err
	}
	o.traced, o.spans = traced, spansPath
	run := runUntraced
	if traced {
		run = runTraced
	}
	rep, err := run(o)
	if err != nil {
		return err
	}
	printRun(os.Stdout, rep)
	if reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, data, 0o644); err != nil {
			return err
		}
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]lineMetric{}}
	for name, v := range rep.Metrics {
		line.Metrics[name] = lineMetric{Value: v.Value, Unit: v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// printRun lists every metric by name with its unit, then the notes.
func printRun(w io.Writer, rep *runReport) {
	kind := "end-to-end, untraced"
	if rep.Traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "%s seed %d, %g s (%s): attempted %d, failed %d, correct %v\n",
		rep.Workload, rep.Seed, rep.Seconds, kind, rep.Attempted, rep.Failed, rep.Correct)
	for _, d := range rep.defs {
		v := rep.Metrics[d.Name]
		switch {
		case v.NA != "":
			fmt.Fprintf(w, "  %-36s n/a (%s)\n", d.Name, v.NA)
		case v.N > 0:
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", d.Name, v.Value, v.Unit, v.N)
		default:
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	if len(rep.TemplateP50MS) > 0 {
		names := make([]string, 0, len(rep.TemplateP50MS))
		for name := range rep.TemplateP50MS {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  median round trip by statement template:")
		for _, name := range names {
			fmt.Fprintf(w, "    %-34s %10.4f ms\n", name, rep.TemplateP50MS[name])
		}
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}
