// Quickstart: the minimal end-to-end use of the library — build the HTAP
// system, train the smart router, curate a knowledge base, and ask for an
// explanation of the paper's Example 1 query.
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
	// One call assembles everything: TPC-H data in both storage engines,
	// a tree-CNN smart router trained on a synthetic workload, and the
	// paper's 20-entry expert-curated knowledge base.
	env, err := eval.NewEnv(eval.DefaultEnvConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Wire the RAG explainer with the simulated Doubao model and the
	// paper's default of K=2 retrieved plan pairs.
	ex := explain.New(env.Sys, env.Router, env.KB, llm.Doubao(), explain.DefaultOptions())

	// Ask the question from the paper's introduction: "Why does my query
	// run so much slower on one engine?"
	res, err := env.Sys.Model(htap.Example1SQL)
	if err != nil {
		log.Fatal(err)
	}
	out, err := ex.Explain(res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TP: %v   AP: %v   → %s is %.1fx faster\n\n",
		res.TPTime, res.APTime, res.Winner, res.Speedup())
	fmt.Println(out.Text())
	fmt.Printf("\n(encode %v, retrieve %v, think %v, generate %v)\n",
		out.EncodeTime, out.SearchTime, out.Response.ThinkTime, out.Response.GenTime)
}
