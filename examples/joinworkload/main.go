// Joinworkload: the paper's first workload family (§IV) — join queries
// where the engines choose different join strategies. The example takes a
// batch of generated join queries, plans each on both engines, routes it
// with the smart router, explains the modeled performance difference, and
// grades every explanation against the expert oracle.
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
	env, err := eval.NewEnv(eval.DefaultEnvConfig())
	if err != nil {
		log.Fatal(err)
	}
	ex := explain.New(env.Sys, env.Router, env.KB, llm.Doubao(), explain.DefaultOptions())

	gen := workload.NewGenerator(2026)
	routedRight, graded, accurate := 0, 0, 0
	for _, q := range gen.Batch(30) {
		if q.Family != workload.FamilyJoin {
			continue
		}
		res, err := env.Sys.Model(q.SQL)
		if err != nil {
			log.Fatalf("planning %q: %v", q.SQL, err)
		}
		predicted, probs := env.Router.Predict(&res.Pair)
		if predicted == res.Winner {
			routedRight++
		}
		truth, err := env.Oracle.Judge(res)
		if err != nil {
			log.Fatal(err)
		}
		out, err := ex.Explain(res)
		if err != nil {
			log.Fatal(err)
		}
		g := expert.GradeExplanation(out.Text(), truth)
		graded++
		if g.Verdict == expert.VerdictAccurate {
			accurate++
		}
		fmt.Printf("[%s] router=%s(%.2f) winner=%s %.1fx verdict=%s\n",
			q.Template, predicted, probs[1], res.Winner, res.Speedup(), g.Verdict)
		fmt.Printf("    %s\n", firstSentence(out.Text()))
	}
	fmt.Printf("\nrouting accuracy on join family: %d/%d\n", routedRight, graded)
	fmt.Printf("explanation accuracy:            %d/%d\n", accurate, graded)
}

func firstSentence(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return s[:i+1]
		}
	}
	return s
}
