// Feedbackloop: the paper's expert-in-the-loop maintenance story
// (§III-B): LLM outputs that experts judge wrong are corrected and
// written back into the knowledge base, improving accuracy for
// subsequent similar queries. The example deliberately starts from a
// *tiny* (under-curated) knowledge base so some explanations come back
// None or imprecise, then applies expert corrections and re-measures.
package main

import (
	"fmt"
	"log"

	"htapxplain/internal/eval"
	"htapxplain/internal/expert"
	"htapxplain/internal/explain"
	"htapxplain/internal/llm"
	"htapxplain/internal/workload"
)

func main() {
	cfg := eval.DefaultEnvConfig()
	cfg.KBSize = 4 // deliberately under-curated
	env, err := eval.NewEnv(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ex := explain.New(env.Sys, env.Router, env.KB, llm.Doubao(), explain.DefaultOptions())

	queries := workload.NewTestGenerator(777).Batch(48)
	// grade explains one query and grades the text against the oracle
	grade := func(sql string) (*explain.Explanation, expert.Truth, bool) {
		m, err := env.Sys.Model(sql)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := env.Oracle.Judge(m)
		if err != nil {
			log.Fatal(err)
		}
		out, err := ex.Explain(m)
		if err != nil {
			log.Fatal(err)
		}
		return out, truth, expert.GradeExplanation(out.Text(), truth).Verdict == expert.VerdictAccurate
	}
	measure := func(tag string) int {
		accurate := 0
		for _, q := range queries {
			if _, _, ok := grade(q.SQL); ok {
				accurate++
			}
		}
		fmt.Printf("%-18s accuracy %d/%d (KB size %d)\n", tag, accurate, len(queries), env.KB.Len())
		return accurate
	}

	before := measure("before feedback:")

	// expert pass: wherever the system was wrong or declined, the expert
	// writes the correct explanation into the KB
	corrections := 0
	for _, q := range queries {
		if out, truth, ok := grade(q.SQL); !ok {
			if err := ex.Feedback(out, env.Oracle.Explain(truth), truth); err != nil {
				log.Fatal(err)
			}
			corrections++
		}
	}
	fmt.Printf("experts corrected %d explanations into the knowledge base\n", corrections)

	after := measure("after feedback: ")
	fmt.Printf("\nimprovement: +%d accurate explanations\n", after-before)
}
