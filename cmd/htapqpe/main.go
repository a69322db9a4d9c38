// Command htapqpe is the interactive entry point of the query-performance
// explainer: it plans a SQL query on both HTAP engines, shows both plans
// and the modeled execution result, and generates the RAG-grounded
// natural-language explanation of the performance difference. The query
// is not executed.
//
// Usage:
//
//	htapqpe -example1                 # the paper's demonstrative query
//	htapqpe -q "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'"
//	htapqpe -q "..." -k 3 -model chatgpt4 -show-prompt
//	htapqpe -q "..." -user-context "an index has been created on c_phone"
package main

import (
	"flag"
	"fmt"
	"os"

	"htapxplain/internal/eval"
	"htapxplain/internal/explain"
	"htapxplain/internal/htap"
	"htapxplain/internal/llm"
)

func main() {
	var (
		query      = flag.String("q", "", "SQL query to explain")
		example1   = flag.Bool("example1", false, "run the paper's Example 1 query")
		k          = flag.Int("k", 2, "number of retrieved similar plan pairs")
		modelName  = flag.String("model", "doubao", "LLM: doubao or chatgpt4")
		userCtx    = flag.String("user-context", "", "additional user-provided context for the prompt")
		noRAG      = flag.Bool("no-rag", false, "disable retrieval (ablation)")
		ask        = flag.String("ask", "", "a conversational follow-up question to ask after the explanation")
		whySlow    = flag.Bool("why-slow", false, "also diagnose the slower engine's bottlenecks with advice")
		showPrompt = flag.Bool("show-prompt", false, "print the full assembled prompt")
		showPlans  = flag.Bool("show-plans", true, "print both EXPLAIN plans")
	)
	flag.Parse()
	if *example1 {
		*query = htap.Example1SQL
	}
	if *query == "" {
		fmt.Fprintln(os.Stderr, "htapqpe: provide -q <sql> or -example1")
		flag.Usage()
		os.Exit(2)
	}
	model, err := pickModel(*modelName)
	if err != nil {
		fatal(err)
	}

	fmt.Println("building HTAP system, training smart router, curating knowledge base ...")
	env, err := eval.NewEnv(eval.DefaultEnvConfig())
	if err != nil {
		fatal(err)
	}
	ex := explain.New(env.Sys, env.Router, env.KB, model, explain.Options{
		K: *k, UseRAG: !*noRAG, IncludeGuardrail: true, UserContext: *userCtx,
	})
	res, err := env.Sys.Model(*query)
	if err != nil {
		fatal(err)
	}
	out, err := ex.Explain(res)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nquery: %s\n", res.SQL)
	if *showPlans {
		fmt.Printf("\n--- TP plan (cost units: TP points) ---\n%s\n", res.Pair.TP)
		fmt.Printf("\n--- AP plan (cost units: AP points) ---\n%s\n", res.Pair.AP)
	}
	fmt.Printf("\nmodeled execution @100GB/6-node: TP %v, AP %v → %s faster (%.1fx)\n",
		res.TPTime, res.APTime, res.Winner, res.Speedup())
	if len(out.Retrieved) > 0 {
		fmt.Printf("\nretrieved knowledge (top %d):\n", len(out.Retrieved))
		for i, h := range out.Retrieved {
			fmt.Printf("  %d. d=%.4f [%s %.1fx] %s\n", i+1, h.Distance, h.Entry.Winner, h.Entry.Speedup, h.Entry.SQL)
		}
	}
	if *showPrompt {
		fmt.Printf("\n--- prompt ---\n%s\n--- end prompt ---\n", out.Prompt())
	}
	fmt.Printf("\n=== explanation (%s) ===\n%s\n", model.Name(), out.Text())
	fmt.Printf("\nresponse time: encode %v + search %v + think %v + generate %v = %v\n",
		out.EncodeTime, out.SearchTime, out.Response.ThinkTime, out.Response.GenTime,
		out.TotalModeledLatency())

	if *ask != "" {
		conv := ex.Converse(out)
		resp, err := conv.Ask(*ask)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n=== follow-up ===\nQ: %s\nA: %s\n", *ask, resp.Text)
	}
	if *whySlow {
		rep, err := ex.WhySlow(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n=== why is it slow on %s? ===\n%s\n", rep.Engine, rep.Text)
	}
}

func pickModel(name string) (llm.Model, error) {
	switch name {
	case "doubao":
		return llm.Doubao(), nil
	case "chatgpt4":
		return llm.ChatGPT4(), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want doubao or chatgpt4)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "htapqpe:", err)
	os.Exit(1)
}
