// Command benchrunner regenerates every table and figure of the paper's
// evaluation section as text tables, plus three ablations. Experiment IDs
// name internal/eval's reports: e1 is eval.E1Example1, a1 is
// eval.AblationKBSize, and so on.
//
// Usage:
//
//	benchrunner                  # all experiments
//	benchrunner -e e1            # just Example 1 / Tables II-III
//	benchrunner -e e3,e5,a2      # a subset
//
// Performance is measured by the repository benchmark, not here: see
// bench/README.md (`go run ./bench -out BENCH.json`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"htapxplain/internal/eval"
	"htapxplain/internal/llm"
)

func main() {
	which := flag.String("e", "all", "comma-separated experiment ids (e1..e8, a1..a3) or 'all'")
	flag.Parse()

	fmt.Println("building experimental environment (system, router, knowledge base) ...")
	env, err := eval.NewEnv(eval.DefaultEnvConfig())
	if err != nil {
		fatal(err)
	}
	model := llm.Doubao()

	type experiment struct {
		id  string
		run func() (string, error)
	}
	experiments := []experiment{
		{"e1", func() (string, error) { return eval.E1Example1(env, model) }},
		{"e2", func() (string, error) { return eval.E2Accuracy(env, model) }},
		{"e3", func() (string, error) { return eval.E3KSweep(env, model) }},
		{"e4", func() (string, error) { return eval.E4Models(env) }},
		{"e5", func() (string, error) { return eval.E5Latency(env, model) }},
		{"e5b", eval.E5KBScaling},
		{"e6", func() (string, error) { return eval.E6Study(env, model) }},
		{"e7", func() (string, error) { return eval.E7DBGPT(env, model) }},
		{"e8", func() (string, error) { return eval.E8Router(env) }},
		{"a1", func() (string, error) { return eval.AblationKBSize(env, model) }},
		{"a2", func() (string, error) { return eval.AblationGuardrail(env, model) }},
		{"a3", func() (string, error) { return eval.AblationEmbedding(env) }},
	}

	want := map[string]bool{}
	all := *which == "all"
	for _, id := range strings.Split(*which, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	// e5 implies its scaling companion when running all
	if want["e5"] {
		want["e5b"] = true
	}
	ran := 0
	for _, e := range experiments {
		if !all && !want[e.id] {
			continue
		}
		out, err := e.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.id, err))
		}
		fmt.Println(strings.Repeat("=", 72))
		fmt.Print(out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchrunner: no experiment matched %q\n", *which)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
