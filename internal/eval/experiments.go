package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"htapxplain/internal/dbgpt"
	"htapxplain/internal/expert"
	"htapxplain/internal/explain"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
	"htapxplain/internal/study"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/vectordb"
	"htapxplain/internal/workload"
)

// This file regenerates every table/figure of the paper's evaluation
// (§VI) as printable text reports. Each report's doc comment names the
// paper artifact it reproduces.

// E1Example1 reproduces Example 1 with Tables II and III: the plan pair,
// the execution result, and the three explanations (expert, ours, DBG-PT).
func E1Example1(env *Env, model llm.Model) (string, error) {
	var b strings.Builder
	res, err := env.Sys.Model(htap.Example1SQL)
	if err != nil {
		return "", err
	}
	truth, err := env.Oracle.Judge(res)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "E1 — Example 1 (paper §VI-A, Tables II & III)\n")
	fmt.Fprintf(&b, "query: %s\n\n", res.SQL)
	fmt.Fprintf(&b, "TP plan (Table II upper):\n%s\n\n", res.Pair.TP.ExplainJSON())
	fmt.Fprintf(&b, "AP plan (Table II lower):\n%s\n\n", res.Pair.AP.ExplainJSON())
	fmt.Fprintf(&b, "execution result: TP %v vs AP %v → %s faster (%.1fx)\n", res.TPTime, res.APTime, res.Winner, res.Speedup())
	fmt.Fprintf(&b, "paper reference:  TP 5.80s vs AP 310ms → AP faster (18.7x)\n\n")

	fmt.Fprintf(&b, "explanation by experts:\n%s\n\n", env.Oracle.Explain(truth))

	ex := explain.New(env.Sys, env.Router, env.KB, model, explain.DefaultOptions())
	out, err := ex.Explain(res)
	if err != nil {
		return "", err
	}
	g := expert.GradeExplanation(out.Text(), truth)
	fmt.Fprintf(&b, "explanation by our approach (%s): [graded %s]\n%s\n\n", model.Name(), g.Verdict, out.Text())

	base := dbgpt.New(model)
	bout, err := base.Explain(&res.Pair)
	if err != nil {
		return "", err
	}
	bg := expert.GradeExplanation(bout.Response.Text, truth)
	fmt.Fprintf(&b, "explanation by DBG-PT: [graded %s]\n%s\n", bg.Verdict, bout.Response.Text)
	return b.String(), nil
}

// E2Accuracy reproduces the §VI-B headline accuracy (paper: 91% accurate,
// 9% less precise incl. 3.5% None; 200-query test set, 20-entry KB, K=2).
func E2Accuracy(env *Env, model llm.Model) (string, error) {
	rep, _, err := env.EvaluateAccuracy(model, 2, env.TestQueries(200))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E2 — explanation accuracy (paper §VI-B)\n")
	fmt.Fprintf(&b, "%-28s %-10s %-10s\n", "metric", "paper", "measured")
	fmt.Fprintf(&b, "%-28s %-10s %.1f%%\n", "accurate", "91%", 100*rep.AccurateRate())
	fmt.Fprintf(&b, "%-28s %-10s %.1f%%\n", "less precise (incl. None)", "9%", 100*float64(rep.LessPrecise)/float64(rep.Total))
	fmt.Fprintf(&b, "%-28s %-10s %.1f%%\n", "None outputs", "3.5%", 100*rep.NoneRate())
	fmt.Fprintf(&b, "%-28s %-10s %d\n", "false claims", "-", rep.FalseClaims)
	return b.String(), nil
}

// E3KSweep reproduces the retrieval-K sweep (paper: K=1 → 85% acc / 8%
// None; K ∈ [2,5] → 89-91%).
func E3KSweep(env *Env, model llm.Model) (string, error) {
	queries := env.TestQueries(200)
	var b strings.Builder
	fmt.Fprintf(&b, "E3 — retrieved-vector sweep (paper §VI-B)\n")
	fmt.Fprintf(&b, "%-4s %-12s %-10s\n", "K", "accurate", "None")
	for _, k := range []int{1, 2, 3, 4, 5} {
		rep, _, err := env.EvaluateAccuracy(model, k, queries)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-4d %-12s %-10s\n", k,
			fmt.Sprintf("%.1f%%", 100*rep.AccurateRate()),
			fmt.Sprintf("%.1f%%", 100*rep.NoneRate()))
	}
	b.WriteString("paper: K=1 → 85% / 8% None; K in [2,5] → 89-91%\n")
	return b.String(), nil
}

// E4Models reproduces the model comparison (paper: Doubao vs ChatGPT-4.0,
// minimal accuracy differences).
func E4Models(env *Env) (string, error) {
	queries := env.TestQueries(200)
	var b strings.Builder
	fmt.Fprintf(&b, "E4 — LLM comparison (paper §VI-B: minimal differences)\n")
	fmt.Fprintf(&b, "%-16s %-12s %-10s\n", "model", "accurate", "None")
	for _, m := range []llm.Model{llm.Doubao(), llm.ChatGPT4()} {
		rep, _, err := env.EvaluateAccuracy(m, 2, queries)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-16s %-12s %-10s\n", m.Name(),
			fmt.Sprintf("%.1f%%", 100*rep.AccurateRate()),
			fmt.Sprintf("%.1f%%", 100*rep.NoneRate()))
	}
	return b.String(), nil
}

// E5Latency reproduces the end-to-end response-time decomposition
// (paper: router <1ms, KB search <0.1ms @20 entries, think ≤2s, gen ≈10s).
func E5Latency(env *Env, model llm.Model) (string, error) {
	_, cases, err := env.EvaluateAccuracy(model, 2, env.TestQueries(60))
	if err != nil {
		return "", err
	}
	lat := Latency(cases)
	var b strings.Builder
	fmt.Fprintf(&b, "E5 — end-to-end response time decomposition (paper §VI-B)\n")
	fmt.Fprintf(&b, "%-24s %-12s %-12s\n", "component", "paper", "measured")
	fmt.Fprintf(&b, "%-24s %-12s %v\n", "router encoding", "< 1 ms", lat.MeanEncode)
	fmt.Fprintf(&b, "%-24s %-12s %v\n", "KB search (20 entries)", "< 0.1 ms", lat.MeanSearch)
	fmt.Fprintf(&b, "%-24s %-12s %v\n", "LLM thinking", "<= 2 s", lat.MeanThink)
	fmt.Fprintf(&b, "%-24s %-12s %v\n", "LLM generation", "~ 10 s", lat.MeanGen)
	return b.String(), nil
}

// E5KBScaling measures KB search time as the knowledge base grows,
// exact scan vs HNSW (the paper's forward-looking claim that vector
// indexing keeps search sub-dominant as the KB grows).
func E5KBScaling() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "E5b — KB search scaling, exact vs HNSW (paper §VI-B outlook)\n")
	fmt.Fprintf(&b, "%-10s %-14s %-14s %-10s\n", "entries", "exact/query", "hnsw/query", "recall@2")
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{20, 200, 2000, 20000} {
		exact := vectordb.New(treecnn.PairDim, vectordb.Cosine)
		vecs := make([][]float64, n)
		for i := 0; i < n; i++ {
			v := make([]float64, treecnn.PairDim)
			for d := range v {
				v[d] = rng.Float64()*2 - 1
			}
			vecs[i] = v
			if _, err := exact.Add(v); err != nil {
				return "", err
			}
		}
		approx := vectordb.New(treecnn.PairDim, vectordb.Cosine)
		for _, v := range vecs {
			if _, err := approx.Add(v); err != nil {
				return "", err
			}
		}
		approx.BuildHNSW(12, 64, 3)
		const queries = 50
		qs := make([][]float64, queries)
		for i := range qs {
			q := make([]float64, treecnn.PairDim)
			for d := range q {
				q[d] = rng.Float64()*2 - 1
			}
			qs[i] = q
		}
		t0 := time.Now()
		truths := make([]map[int]bool, queries)
		for i, q := range qs {
			hits, err := exact.Search(q, 2)
			if err != nil {
				return "", err
			}
			truths[i] = map[int]bool{}
			for _, h := range hits {
				truths[i][h.ID] = true
			}
		}
		exactPer := time.Since(t0) / queries
		t1 := time.Now()
		found := 0
		total := 0
		for i, q := range qs {
			hits, err := approx.SearchHNSW(q, 2)
			if err != nil {
				return "", err
			}
			for _, h := range hits {
				total++
				if truths[i][h.ID] {
					found++
				}
			}
		}
		hnswPer := time.Since(t1) / queries
		fmt.Fprintf(&b, "%-10d %-14v %-14v %.2f\n", n, exactPer, hnswPer,
			float64(found)/float64(max(total, 1)))
	}
	return b.String(), nil
}

// E6Study reproduces the participant study (paper §VI-C).
func E6Study(env *Env, model llm.Model) (string, error) {
	res, err := env.Sys.Model(htap.Example1SQL)
	if err != nil {
		return "", err
	}
	truth, err := env.Oracle.Judge(res)
	if err != nil {
		return "", err
	}
	ex := explain.New(env.Sys, env.Router, env.KB, model, explain.DefaultOptions())
	out, err := ex.Explain(res)
	if err != nil {
		return "", err
	}
	g := expert.GradeExplanation(out.Text(), truth)
	m := study.MaterialsFromPair(&res.Pair, out.Text(), g.Verdict == expert.VerdictAccurate)
	o := study.Run(study.DefaultConfig(), m)
	var b strings.Builder
	fmt.Fprintf(&b, "E6 — participant study (paper §VI-C; simulated cohort)\n")
	fmt.Fprintf(&b, "%-36s %-10s %-10s\n", "metric", "paper", "measured")
	fmt.Fprintf(&b, "%-36s %-10s %.1f min\n", "time to understanding, with LLM", "3.5 min", o.GroupAMeanMinutes)
	fmt.Fprintf(&b, "%-36s %-10s %.1f min\n", "time to understanding, plans only", "8.2 min", o.GroupBMeanMinutes)
	fmt.Fprintf(&b, "%-36s %-10s %.0f%%\n", "correct with LLM", "100%", 100*o.GroupACorrectRate)
	fmt.Fprintf(&b, "%-36s %-10s %.0f%%\n", "correct from plans alone", "60%", 100*o.GroupBInitialCorrectRate)
	fmt.Fprintf(&b, "%-36s %-10s %.0f%%\n", "correct after seeing LLM text", "100%", 100*o.GroupBCorrectAfterLLM)
	fmt.Fprintf(&b, "%-36s %-10s %.1f\n", "difficulty rating: raw plans", "8.5", o.DifficultyPlans)
	fmt.Fprintf(&b, "%-36s %-10s %.1f\n", "difficulty rating: LLM text", "3.0", o.DifficultyLLM)
	return b.String(), nil
}

// E7DBGPT reproduces the DBG-PT comparison (paper §VI-D): failure-mode
// census of DBG-PT vs our approach over the test set.
func E7DBGPT(env *Env, model llm.Model) (string, error) {
	ours, base, err := env.CompareWithDBGPT(model, env.TestQueries(200))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E7 — DBG-PT comparison, failure-mode census (paper §VI-D)\n")
	fmt.Fprintf(&b, "%-32s %-8s %-8s\n", "failure mode (n=200)", "ours", "DBG-PT")
	fmt.Fprintf(&b, "%-32s %-8d %-8d\n", "index misattribution", ours.IndexMisattribution, base.IndexMisattribution)
	fmt.Fprintf(&b, "%-32s %-8d %-8d\n", "cost comparison (forbidden)", ours.CostComparison, base.CostComparison)
	fmt.Fprintf(&b, "%-32s %-8d %-8d\n", "columnar overemphasis", ours.ColumnarOveremph, base.ColumnarOveremph)
	fmt.Fprintf(&b, "%-32s %-8d %-8d\n", "misses dominant factor", ours.MissesDominant, base.MissesDominant)
	fmt.Fprintf(&b, "%-32s %-8d %-8d\n", "no context for OFFSET size", ours.OffsetNoContext, base.OffsetNoContext)
	return b.String(), nil
}

// E8Router reproduces the smart-router substrate claims (paper §III-A:
// high accuracy, < 1 MB model, ~1 ms inference).
func E8Router(env *Env) (string, error) {
	rep, err := env.EvaluateRouter(env.TestQueries(100))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E8 — smart router substrate (paper §III-A)\n")
	fmt.Fprintf(&b, "%-24s %-12s %-12s\n", "metric", "paper", "measured")
	fmt.Fprintf(&b, "%-24s %-12s %.1f%%\n", "routing accuracy", "high", 100*rep.TestAcc)
	fmt.Fprintf(&b, "%-24s %-12s %.1f KB\n", "model size", "< 1 MB", rep.ModelKB)
	fmt.Fprintf(&b, "%-24s %-12s %.1f µs\n", "inference / pair", "~1 ms", rep.InferUsec)
	fmt.Fprintf(&b, "%-24s %-12s %d\n", "parameters", "-", rep.Params)
	return b.String(), nil
}

// ---------------------------------------------------------------- ablations

// AblationKBSize sweeps the curated KB size (the paper hypothesizes 20
// representative entries suffice).
func AblationKBSize(env *Env, model llm.Model) (string, error) {
	queries := env.TestQueries(120)
	candidates, err := explain.Label(env.Sys, workload.NewGenerator(env.Cfg.WorkloadSeed).Batch(60))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "A1 — KB size ablation (paper hypothesis: 20 entries suffice)\n")
	fmt.Fprintf(&b, "%-10s %-12s %-10s\n", "KB size", "accurate", "None")
	for _, size := range []int{5, 10, 20, 40} {
		kb, err := explain.CurateKB(env.Router, env.Oracle, candidates, size)
		if err != nil {
			return "", err
		}
		sub := &Env{Cfg: env.Cfg, Sys: env.Sys, Router: env.Router, Oracle: env.Oracle, KB: kb}
		rep, _, err := sub.EvaluateAccuracy(model, 2, queries)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10d %-12s %-10s\n", kb.Len(),
			fmt.Sprintf("%.1f%%", 100*rep.AccurateRate()),
			fmt.Sprintf("%.1f%%", 100*rep.NoneRate()))
	}
	return b.String(), nil
}

// AblationGuardrail measures the cost-comparison failure rate with and
// without the prompt prohibition (§V), using the un-grounded model where
// the failure mode lives.
func AblationGuardrail(env *Env, model llm.Model) (string, error) {
	queries := env.TestQueries(120)
	var b strings.Builder
	fmt.Fprintf(&b, "A2 — prompt guardrail ablation (§V: forbid cost comparison)\n")
	fmt.Fprintf(&b, "%-24s %-20s\n", "guardrail", "cost comparisons")
	for _, guard := range []bool{true, false} {
		ex := explain.New(env.Sys, env.Router, env.KB, model, explain.Options{
			K: 2, UseRAG: false, IncludeGuardrail: guard,
		})
		costComparisons := 0
		for _, q := range queries {
			res, err := env.Sys.Model(q.SQL)
			if err != nil {
				return "", err
			}
			out, err := ex.Explain(res)
			if err != nil {
				return "", err
			}
			if strings.Contains(strings.ToLower(out.Text()), "comparing the costs") {
				costComparisons++
			}
		}
		fmt.Fprintf(&b, "%-24v %d / %d (%.0f%%)\n", guard, costComparisons, len(queries),
			100*float64(costComparisons)/float64(len(queries)))
	}
	b.WriteString("(grounded RAG runs never compare costs; this ablation uses the un-grounded path)\n")
	return b.String(), nil
}

// AblationEmbedding compares retrieval quality of router embeddings vs a
// naive structural-feature encoding (the paper's argument for
// task-specific embeddings).
func AblationEmbedding(env *Env) (string, error) {
	// rebuild a KB keyed by structural features
	structKB := knowledge.New(16)
	for _, e := range env.KB.Entries() {
		// the stored plan JSON does not carry the pair's features;
		// re-plan the stored SQL instead
		res, err := env.Sys.Model(e.SQL)
		if err != nil {
			return "", err
		}
		cp := *e
		cp.Encoding = structEncode(&res.Pair)
		if _, err := structKB.Add(cp); err != nil {
			return "", err
		}
	}
	queries := env.TestQueries(120)
	var b strings.Builder
	fmt.Fprintf(&b, "A3 — embedding source ablation (router embedding vs raw structural features)\n")
	fmt.Fprintf(&b, "%-28s %-26s\n", "encoder", "top-2 primary-factor recall")
	routerHits, structHits, total := 0, 0, 0
	for _, q := range queries {
		res, err := env.Sys.Model(q.SQL)
		if err != nil {
			return "", err
		}
		truth, err := env.Oracle.Judge(res)
		if err != nil {
			return "", err
		}
		total++
		if kbHasPrimary(env.KB, env.Router.EmbedPair(&res.Pair), truth.Primary) {
			routerHits++
		}
		if kbHasPrimary(structKB, structEncode(&res.Pair), truth.Primary) {
			structHits++
		}
	}
	fmt.Fprintf(&b, "%-28s %.1f%%\n", "router (task-specific)", 100*float64(routerHits)/float64(total))
	fmt.Fprintf(&b, "%-28s %.1f%%\n", "structural features", 100*float64(structHits)/float64(total))
	return b.String(), nil
}

func kbHasPrimary(kb *knowledge.Base, enc []float64, primary expert.Factor) bool {
	hits, err := kb.TopK(enc, 2)
	if err != nil {
		return false
	}
	for _, h := range hits {
		for _, f := range h.Entry.Factors {
			if f == primary {
				return true
			}
		}
	}
	return false
}

// structEncode is the naive baseline: a 16-dim vector of per-engine
// operator counts and log cardinalities.
func structEncode(p *plan.Pair) []float64 {
	enc := func(n *plan.Node) []float64 {
		s := plan.Summarize(n)
		return []float64{
			float64(s.NestedLoopJoins), float64(s.HashJoins),
			float64(s.IndexScans + s.IndexLookups), float64(s.TableScans),
			float64(s.Sorts + s.TopNs), float64(s.HashAggregates + s.GroupAggregates),
			logScale(s.ScannedRows), logScale(s.MaxRows),
		}
	}
	return append(enc(p.TP), enc(p.AP)...)
}

func logScale(v float64) float64 {
	x := 0.0
	for v >= 2 {
		v /= 2
		x++
	}
	return x / 32
}
