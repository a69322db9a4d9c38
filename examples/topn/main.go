// Topn: the paper's second workload family (§IV) — Top-N queries where
// the engines diverge on ORDER BY / LIMIT / OFFSET handling: TP can read
// an index in order and stop after LIMIT rows, while AP must scan and
// sort. The example sweeps LIMIT and OFFSET to show the crossover, with
// explanations for both regimes.
package main

import (
	"fmt"
	"log"

	"htapxplain/internal/eval"
	"htapxplain/internal/explain"
	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
)

func main() {
	env, err := eval.NewEnv(eval.DefaultEnvConfig())
	if err != nil {
		log.Fatal(err)
	}
	ex := explain.New(env.Sys, env.Router, env.KB, llm.Doubao(), explain.DefaultOptions())

	fmt.Println("indexed ORDER BY (o_orderkey): TP reads index order and stops early")
	fmt.Printf("%-8s %-14s %-14s %-8s\n", "LIMIT", "TP", "AP", "winner")
	for _, limit := range []int{1, 10, 100, 1000} {
		sql := fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey LIMIT %d", limit)
		res, err := env.Sys.Model(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-14v %-14v %-8s\n", limit, res.TPTime, res.APTime, res.Winner)
	}

	fmt.Println("\nunindexed ORDER BY (o_totalprice DESC): both must consider all rows")
	fmt.Printf("%-8s %-14s %-14s %-8s\n", "LIMIT", "TP", "AP", "winner")
	for _, limit := range []int{10, 100} {
		sql := fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT %d", limit)
		res, err := env.Sys.Model(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-14v %-14v %-8s\n", limit, res.TPTime, res.APTime, res.Winner)
	}

	// explain one from each regime
	for _, sql := range []string{
		"SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey LIMIT 10",
		"SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 10",
	} {
		m, err := env.Sys.Model(sql)
		if err != nil {
			log.Fatal(err)
		}
		out, err := ex.Explain(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n→ %s wins: %s\n", sql, m.Winner, out.Text())
		if m.Winner == plan.TP {
			sum := plan.Summarize(m.Pair.TP)
			fmt.Printf("   (TP plan uses index order: %v)\n", sum.UsesIndex)
		}
	}
}
