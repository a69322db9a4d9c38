package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// fullDoc is the document -out writes: for each workload, the untraced
// runs (one, or -repeat of them) and the traced run.
type fullDoc struct {
	Seed        int64         `json:"seed"`
	Connections int           `json:"connections"`
	Seconds     float64       `json:"seconds"`
	EndToEnd    []metricDef   `json:"end_to_end"`
	Workloads   []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name     string       `json:"name"`
	Why      string       `json:"why"`
	Untraced []*runReport `json:"untraced"`
	Traced   *runReport   `json:"traced"`
}

// child runs one workload in a fresh process of this binary, so that
// set-up time, peak memory and CPU belong to that workload alone.
func child(reportPath string, args ...string) (*runReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append(args, "-report", reportPath)...)
	cmd.Stdout = os.Stderr // the child's metric listing is progress output here
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	rep := &runReport{}
	return rep, json.Unmarshal(data, rep)
}

func fullReport(outPath, workload string, seed int64, repeat int) error {
	var defs []*workloadDef
	for i := range workloads {
		if workload == "all" || workload == workloads[i].Name {
			defs = append(defs, &workloads[i])
		}
	}
	if len(defs) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "report-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	childReport := filepath.Join(tmp, "run.json")
	seedArg := strconv.FormatInt(seed, 10)

	// a throw-away child, so that the first real set-up does not pay for
	// cold file and page caches
	if _, err := child(childReport, "-workload", "tp_point", "-seed", seedArg, "-seconds", "1"); err != nil {
		return err
	}

	doc := fullDoc{Seed: seed, Connections: connections, Seconds: runSeconds, EndToEnd: endToEnd}
	spansOut, err := os.Create(outPath + ".spans.json")
	if err != nil {
		return err
	}
	defer spansOut.Close()
	incorrect := 0
	for i, def := range defs {
		wd := workloadDoc{Name: def.Name, Why: def.Why}
		for r := 0; r < repeat; r++ {
			rep, err := child(childReport, "-workload", def.Name, "-seed", seedArg,
				"-seconds", strconv.Itoa(runSeconds), "-trace", "0")
			if err != nil {
				return err
			}
			wd.Untraced = append(wd.Untraced, rep)
			if !rep.Correct {
				incorrect++
			}
		}
		childSpans := filepath.Join(tmp, "spans.json")
		wd.Traced, err = child(childReport, "-workload", def.Name, "-seed", seedArg,
			"-seconds", strconv.Itoa(runSeconds), "-trace", "1", "-spans", childSpans)
		if err != nil {
			return err
		}
		if !wd.Traced.Correct {
			incorrect++
		}
		// the span file is one object, workload name -> that run's spans
		sep := ","
		if i == 0 {
			sep = "{"
		}
		if _, err := fmt.Fprintf(spansOut, "%s%q:", sep, def.Name); err != nil {
			return err
		}
		if err := appendFile(spansOut, childSpans); err != nil {
			return err
		}
		doc.Workloads = append(doc.Workloads, wd)
	}
	if _, err := fmt.Fprintln(spansOut, "}"); err != nil {
		return err
	}
	if err := spansOut.Close(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s.spans.json\n", outPath, outPath)
	if incorrect > 0 {
		return fmt.Errorf("%d runs were not correct", incorrect)
	}
	return nil
}

func appendFile(dst io.Writer, path string) error {
	src, err := os.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	_, err = io.Copy(dst, src)
	return err
}

// --- compare ---

// quartiles are Python's statistics.quantiles(xs, n=4): the driver that
// judges the benchmark computes spreads with it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func loadDoc(path string) (*fullDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &fullDoc{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// side is one report's runs of one (workload, metric) pair.
type side struct {
	median, spread float64
	hasSpread      bool
}

func summarize(runs []*runReport, metric string) side {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Metrics[metric].Value)
	}
	if len(xs) < 4 {
		return side{median: median(xs)}
	}
	q1, q2, q3 := quartiles(xs)
	return side{median: q2, spread: div(q3-q1, q2), hasSpread: true}
}

// compareReports prints one row per (workload, end-to-end metric): both
// medians, the change, the bound, and ok, worse, or unresolved when the
// runs of either side spread wider than the bound. It reports whether any
// row is worse.
func compareReports(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := loadDoc(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadDoc(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]workloadDoc{}
	for _, wd := range b.Workloads {
		byName[wd.Name] = wd
	}
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := summarize(wa.Untraced, d.Name), summarize(wb.Untraced, d.Name)
			change := div(sb.median-sa.median, sa.median)
			loss := change
			if d.Better == "higher" {
				loss = -change
			}
			verdict := "ok"
			switch {
			case (sa.hasSpread && sa.spread > d.Bound) || (sb.hasSpread && sb.spread > d.Bound):
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*sa.spread, 100*sb.spread)
			case loss > d.Bound:
				verdict, worse = "worse", true
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n",
				wa.Name, d.Name, sa.median, sb.median, 100*change, 100*d.Bound, verdict)
		}
		fa, fb := failedShare(wa.Untraced), failedShare(wb.Untraced)
		verdict := "ok"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-16s %14.6f %14.6f %8s %7s  %s\n", wa.Name, "failed_frac", fa, fb, "", "0", verdict)
	}
	return worse, nil
}

// failedShare is failed / attempted over the runs, with a run that was
// not correct (a failed durability check) counting as wholly failed.
func failedShare(runs []*runReport) float64 {
	var failed, attempted float64
	for _, r := range runs {
		attempted += float64(r.Attempted)
		if r.Correct {
			failed += float64(r.Failed)
		} else {
			failed += float64(r.Attempted)
		}
	}
	return div(failed, attempted)
}
