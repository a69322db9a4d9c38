// Whyslow demonstrates the paper's future-work goal (§VII): answering the
// general question "Why does my query run so slowly?" — not just which
// engine is faster, but what the slower engine's bottleneck is and what
// the user can do about it. Three queries cover the three archetypes: a
// join bound by indexless nested loops, a point query bound by
// distributed startup, and deep OFFSET pagination.
package main

import (
	"fmt"
	"log"

	"htapxplain/internal/eval"
	"htapxplain/internal/explain"
	"htapxplain/internal/htap"
	"htapxplain/internal/llm"
)

func main() {
	env, err := eval.NewEnv(eval.DefaultEnvConfig())
	if err != nil {
		log.Fatal(err)
	}
	ex := explain.New(env.Sys, env.Router, env.KB, llm.Doubao(), explain.DefaultOptions())

	queries := []string{
		htap.Example1SQL,
		"SELECT o_totalprice FROM orders WHERE o_orderkey = 4242",
		"SELECT c_custkey, c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC LIMIT 10 OFFSET 900",
	}
	for _, sql := range queries {
		m, err := env.Sys.Model(sql)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := ex.WhySlow(m)
		if err != nil {
			log.Fatalf("WhySlow(%q): %v", sql, err)
		}
		fmt.Printf("query: %s\nslower engine: %s (%.1fx behind %s)\n%s\n\n",
			sql, rep.Engine, rep.Speedup, rep.Faster, rep.Text)
	}
}
