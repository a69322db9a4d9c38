// Package bench is the benchmark harness regenerating every table and
// figure of the paper's evaluation (§VI) under `go test -bench`. Each
// BenchmarkEn measures experiment En of internal/eval/experiments.go
// (eval.E1Example1 … eval.E8Router); ablations follow as
// BenchmarkAblation*. Reported custom metrics (accuracy %, None %,
// latency components) are the paper's quantities; run cmd/benchrunner
// for the same data as formatted tables.
package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"htapxplain/internal/colstore"
	"htapxplain/internal/eval"
	"htapxplain/internal/exec"
	"htapxplain/internal/expert"
	"htapxplain/internal/explain"
	"htapxplain/internal/htap"
	"htapxplain/internal/llm"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/study"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/vectordb"
	"htapxplain/internal/workload"
)

var (
	envOnce sync.Once
	envVal  *eval.Env
	envErr  error
)

func benchEnv(tb testing.TB) *eval.Env {
	tb.Helper()
	envOnce.Do(func() { envVal, envErr = eval.NewEnv(eval.DefaultEnvConfig()) })
	if envErr != nil {
		tb.Fatalf("NewEnv: %v", envErr)
	}
	return envVal
}

// BenchmarkE1_Example1 regenerates Example 1 (paper Tables II & III):
// model both engines' plans and explain the pair — nothing is executed —
// and reports the modeled speedup.
func BenchmarkE1_Example1(b *testing.B) {
	env := benchEnv(b)
	ex := explain.New(env.Sys, env.Router, env.KB, llm.Doubao(), explain.DefaultOptions())
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		m, err := env.Sys.Model(htap.Example1SQL)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Explain(m); err != nil {
			b.Fatal(err)
		}
		speedup = m.Speedup()
	}
	b.ReportMetric(speedup, "AP-speedup-x")
}

// BenchmarkE2_Accuracy regenerates the §VI-B headline accuracy over the
// 200-query test set with K=2 (paper: 91% accurate, 3.5% None).
func BenchmarkE2_Accuracy(b *testing.B) {
	env := benchEnv(b)
	queries := env.TestQueries(200)
	b.ResetTimer()
	var rep eval.AccuracyReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, _, err = env.EvaluateAccuracy(llm.Doubao(), 2, queries)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.AccurateRate(), "accurate-%")
	b.ReportMetric(100*rep.NoneRate(), "none-%")
}

// BenchmarkE3_KSweep regenerates the retrieval-K sweep (paper: K=1 → 85%
// / 8% None; K in [2,5] → 89-91%).
func BenchmarkE3_KSweep(b *testing.B) {
	env := benchEnv(b)
	queries := env.TestQueries(100)
	for _, k := range []int{1, 2, 3, 4, 5} {
		k := k
		b.Run(benchName("K", k), func(b *testing.B) {
			var rep eval.AccuracyReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, _, err = env.EvaluateAccuracy(llm.Doubao(), k, queries)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rep.AccurateRate(), "accurate-%")
			b.ReportMetric(100*rep.NoneRate(), "none-%")
		})
	}
}

// BenchmarkE4_Models regenerates the model comparison (paper: minimal
// differences between Doubao and ChatGPT-4.0).
func BenchmarkE4_Models(b *testing.B) {
	env := benchEnv(b)
	queries := env.TestQueries(100)
	for _, m := range []llm.Model{llm.Doubao(), llm.ChatGPT4()} {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			var rep eval.AccuracyReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, _, err = env.EvaluateAccuracy(m, 2, queries)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rep.AccurateRate(), "accurate-%")
		})
	}
}

// BenchmarkE5_RouterEncode measures the smart-router embedding step
// (paper: <1 ms per plan pair).
func BenchmarkE5_RouterEncode(b *testing.B) {
	env := benchEnv(b)
	res, err := env.Sys.Model(htap.Example1SQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Router.EmbedPair(&res.Pair)
	}
}

// BenchmarkE5_KBSearch measures retrieval over the paper's 20-entry KB
// (paper: <0.1 ms per request).
func BenchmarkE5_KBSearch(b *testing.B) {
	env := benchEnv(b)
	res, err := env.Sys.Model(htap.Example1SQL)
	if err != nil {
		b.Fatal(err)
	}
	enc := env.Router.EmbedPair(&res.Pair)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.KB.TopK(enc, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_KBScaling measures exact vs HNSW search as the KB grows
// (the paper's §VI-B outlook on vector indexing).
func BenchmarkE5_KBScaling(b *testing.B) {
	for _, n := range []int{20, 2000, 20000} {
		store := vectordb.New(treecnn.PairDim, vectordb.Cosine)
		hnsw := vectordb.New(treecnn.PairDim, vectordb.Cosine)
		vec := make([]float64, treecnn.PairDim)
		seed := uint64(12345)
		next := func() float64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return float64(seed%2000)/1000 - 1
		}
		for i := 0; i < n; i++ {
			v := make([]float64, treecnn.PairDim)
			for d := range v {
				v[d] = next()
			}
			if _, err := store.Add(v); err != nil {
				b.Fatal(err)
			}
			if _, err := hnsw.Add(v); err != nil {
				b.Fatal(err)
			}
		}
		hnsw.BuildHNSW(12, 64, 3)
		for d := range vec {
			vec[d] = next()
		}
		b.Run(benchName("exact_n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := store.Search(vec, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(benchName("hnsw_n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hnsw.SearchHNSW(vec, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_Study regenerates the participant study (paper §VI-C).
func BenchmarkE6_Study(b *testing.B) {
	env := benchEnv(b)
	res, err := env.Sys.Model(htap.Example1SQL)
	if err != nil {
		b.Fatal(err)
	}
	ex := explain.New(env.Sys, env.Router, env.KB, llm.Doubao(), explain.DefaultOptions())
	out, err := ex.Explain(res)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := env.Oracle.Judge(res)
	if err != nil {
		b.Fatal(err)
	}
	g := expert.GradeExplanation(out.Text(), truth)
	m := study.MaterialsFromPair(&res.Pair, out.Text(), g.Verdict == expert.VerdictAccurate)
	b.ResetTimer()
	var o study.Outcome
	for i := 0; i < b.N; i++ {
		o = study.Run(study.DefaultConfig(), m)
	}
	b.ReportMetric(o.GroupAMeanMinutes, "withLLM-min")
	b.ReportMetric(o.GroupBMeanMinutes, "plansOnly-min")
	b.ReportMetric(o.DifficultyPlans, "difficulty-plans")
	b.ReportMetric(o.DifficultyLLM, "difficulty-llm")
}

// BenchmarkE7_DBGPT regenerates the DBG-PT failure-mode comparison
// (paper §VI-D).
func BenchmarkE7_DBGPT(b *testing.B) {
	env := benchEnv(b)
	queries := env.TestQueries(60)
	b.ResetTimer()
	var ours, base eval.FailureCensus
	for i := 0; i < b.N; i++ {
		var err error
		ours, base, err = env.CompareWithDBGPT(llm.Doubao(), queries)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(base.CostComparison), "dbgpt-cost-cmp")
	b.ReportMetric(float64(base.IndexMisattribution), "dbgpt-idx-misattr")
	b.ReportMetric(float64(ours.CostComparison+ours.IndexMisattribution), "ours-failures")
}

// BenchmarkE8_RouterInference measures routing prediction latency (paper:
// ~1 ms) and reports held-out routing accuracy.
func BenchmarkE8_RouterInference(b *testing.B) {
	env := benchEnv(b)
	res, err := env.Sys.Model(htap.Example1SQL)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := env.EvaluateRouter(env.TestQueries(60))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = env.Router.Predict(&res.Pair)
	}
	b.ReportMetric(100*rep.TestAcc, "routing-accuracy-%")
	b.ReportMetric(rep.ModelKB, "model-KB")
}

// BenchmarkAblation_KBSize sweeps the curated KB size (eval.AblationKBSize).
func BenchmarkAblation_KBSize(b *testing.B) {
	env := benchEnv(b)
	queries := env.TestQueries(60)
	candidates, err := explain.Label(env.Sys, workload.NewGenerator(env.Cfg.WorkloadSeed).Batch(60))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{5, 20, 40} {
		size := size
		b.Run(benchName("size", size), func(b *testing.B) {
			kb, err := explain.CurateKB(env.Router, env.Oracle, candidates, size)
			if err != nil {
				b.Fatal(err)
			}
			sub := &eval.Env{Cfg: env.Cfg, Sys: env.Sys, Router: env.Router, Oracle: env.Oracle, KB: kb}
			b.ResetTimer()
			var rep eval.AccuracyReport
			for i := 0; i < b.N; i++ {
				rep, _, err = sub.EvaluateAccuracy(llm.Doubao(), 2, queries)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rep.AccurateRate(), "accurate-%")
		})
	}
}

// BenchmarkAblation_Guardrail measures the forbidden cost-comparison rate
// with and without the §V prompt prohibition (un-grounded path).
func BenchmarkAblation_Guardrail(b *testing.B) {
	env := benchEnv(b)
	queries := env.TestQueries(40)
	for _, guard := range []bool{true, false} {
		guard := guard
		b.Run(benchName("guardrail", boolToInt(guard)), func(b *testing.B) {
			ex := explain.New(env.Sys, env.Router, env.KB, llm.Doubao(), explain.Options{
				K: 2, UseRAG: false, IncludeGuardrail: guard,
			})
			var rate float64
			for i := 0; i < b.N; i++ {
				bad := 0
				for _, q := range queries {
					res, err := env.Sys.Model(q.SQL)
					if err != nil {
						b.Fatal(err)
					}
					out, err := ex.Explain(res)
					if err != nil {
						b.Fatal(err)
					}
					if containsFold(out.Text(), "comparing the costs") {
						bad++
					}
				}
				rate = 100 * float64(bad) / float64(len(queries))
			}
			b.ReportMetric(rate, "cost-cmp-%")
		})
	}
}

// ---------------------------------------------------------- vectorized exec

// selectiveScanParts builds a selective columnar scan over lineitem
// (l_quantity = 1, ~2% of rows) — the shape where batch execution with
// selection vectors pays most: nothing is boxed per match and no column is
// read twice.
func selectiveScanParts(tb testing.TB) (*colstore.Table, []int, exec.ScanFilter) {
	tb.Helper()
	env := benchEnv(tb)
	ct, ok := env.Sys.Col.Table("lineitem")
	if !ok {
		tb.Fatal("no lineitem column table")
	}
	cols := []int{4, 5} // l_quantity, l_extendedprice
	full := exec.TableSchema(ct.Meta, "lineitem")
	subset := exec.Schema{full[4], full[5]}
	pred, err := exec.CompileScanFilter([]sqlparser.Expr{&sqlparser.BinaryExpr{
		Op:   sqlparser.OpEq,
		Left: &sqlparser.ColumnRef{Table: "lineitem", Column: "l_quantity"}, Right: &sqlparser.IntLit{V: 1},
	}}, subset)
	if err != nil {
		tb.Fatal(err)
	}
	return ct, cols, pred
}

// batchSelectiveScan streams the same scan through the vectorized engine
// without materializing: chunk-aliased vectors + selection vector only.
func batchSelectiveScan(ct *colstore.Table, cols []int, pred exec.ScanFilter) (int, error) {
	op := exec.NewColTableScan(ct, "lineitem", cols, pred, nil).Clone()
	ctx := exec.NewContext()
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	matched := 0
	for {
		batch, err := op.Next(ctx)
		if err != nil {
			return 0, err
		}
		if batch == nil {
			break
		}
		matched += batch.NumActive()
	}
	return matched, op.Close()
}

// BenchmarkVectorized_SelectiveAPScan measures the batch pipeline on the
// selective AP scan; its allocation ceiling is enforced by
// TestVectorizedAllocReduction.
func BenchmarkVectorized_SelectiveAPScan(b *testing.B) {
	ct, cols, pred := selectiveScanParts(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, err := batchSelectiveScan(ct, cols, pred)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

// TestVectorizedAllocReduction gates the batch scan's allocation shape: a
// selective scan allocates for its operator clone, its context and its
// decode buffers — per scan, never per row matched (a materializing scan
// boxes a row per match, so it cannot come under one allocation per eight).
func TestVectorizedAllocReduction(t *testing.T) {
	ct, cols, pred := selectiveScanParts(t)
	matched, err := batchSelectiveScan(ct, cols, pred)
	if err != nil || matched == 0 {
		t.Fatalf("selective scan matched %d rows (%v)", matched, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := batchSelectiveScan(ct, cols, pred); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op %.0f over %d chunks, %d matches", allocs, ct.NumChunks(), matched)
	if allocs*8 >= float64(matched) {
		t.Errorf("%.0f allocations for a scan matching %d rows, want fewer than 1 per 8 matches", allocs, matched)
	}
}

// hashKernelPlan plans sql for the AP engine and runs it twice, so the
// plan's pooled runner tree is warm, returning the plan and the second
// run's stats.
func hashKernelPlan(tb testing.TB, env *eval.Env, sql string) (*optimizer.PhysPlan, exec.Stats) {
	tb.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	phys, err := env.Sys.Planner.PlanAP(sel)
	if err != nil {
		tb.Fatal(err)
	}
	var ctx *exec.Context
	for i := 0; i < 2; i++ {
		ctx = exec.NewContext()
		if _, err := phys.Execute(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	return phys, ctx.Stats
}

const (
	// lineitem ⋈ orders on the order key, grouped by a build-side column
	hashJoinGroupSQL = `SELECT o_orderpriority, COUNT(*), SUM(l_extendedprice) FROM lineitem, orders ` +
		`WHERE l_orderkey = o_orderkey GROUP BY o_orderpriority`
	// the same join under a global aggregate: nearly all of it is the probe
	hashJoinProbeSQL = `SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey`
	// two group columns keep the aggregate on the evaluator path (the
	// column fold takes one), so every row goes through the group table
	hashAggFoldSQL = `SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem ` +
		`GROUP BY l_returnflag, l_linestatus`
)

// TestHashKernelAllocs gates the typed-hash kernels' allocation shape: a
// warm pooled plan for a 2-table hash join under a grouped aggregate
// allocates per batch and per group, never per row — no key string, no
// group row, no map entry for a row whose key has been seen. It is not
// skipped under -race: there sync.Pool drops the pooled tree now and then,
// which costs a re-clone (~15 allocations), nowhere near the bound.
func TestHashKernelAllocs(t *testing.T) {
	phys, stats := hashKernelPlan(t, benchEnv(t), hashJoinGroupSQL)
	if stats.HashBuildRows == 0 || stats.HashProbeRows < 1000 || stats.GroupsCreated == 0 {
		t.Fatalf("plan is not a hash join under a grouped aggregate: %+v", stats)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := phys.Execute(exec.NewContext()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op %.0f over %d build rows, %d probe rows, %d groups, %d batches",
		allocs, stats.HashBuildRows, stats.HashProbeRows, stats.GroupsCreated, stats.BatchesProduced)
	if allocs*16 >= float64(stats.HashProbeRows) {
		t.Errorf("%.0f allocations for %d probe rows, want fewer than 1 per 16 rows", allocs, stats.HashProbeRows)
	}
}

// BenchmarkHashJoin_Probe measures the hash-join kernel: build over
// orders, one probe per lineitem row.
func BenchmarkHashJoin_Probe(b *testing.B) {
	benchHashKernel(b, hashJoinProbeSQL)
}

// BenchmarkHashAggregate_Fold measures the aggregate kernel: one group
// table lookup per lineitem row.
func BenchmarkHashAggregate_Fold(b *testing.B) {
	benchHashKernel(b, hashAggFoldSQL)
}

func benchHashKernel(b *testing.B, sql string) {
	phys, _ := hashKernelPlan(b, benchEnv(b), sql)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phys.Execute(exec.NewContext()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorized_LargeHashJoin measures a full AP hash-join +
// aggregate pipeline (lineitem ⋈ orders) through the batch engine — the
// "large join" wall-clock case from the tentpole.
func BenchmarkVectorized_LargeHashJoin(b *testing.B) {
	env := benchEnv(b)
	sql := `SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem, orders ` +
		`WHERE l_orderkey = o_orderkey AND o_totalprice > 50000`
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	phys, err := env.Sys.Planner.PlanAP(sel)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := phys.Execute(exec.NewContext())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatalf("expected 1 aggregate row, got %d", len(rows))
		}
	}
}

// BenchmarkSubstrate_ParseAndPlan measures the parser + both optimizers
// on the Example 1 query (substrate overhead context for E5).
func BenchmarkSubstrate_ParseAndPlan(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Sys.Model(htap.Example1SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_Parse measures the SQL parser alone.
func BenchmarkSubstrate_Parse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(htap.Example1SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_ExecuteBoth measures full dual-engine execution of
// Example 1 on the physical dataset.
func BenchmarkSubstrate_ExecuteBoth(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Sys.Run(htap.Example1SQL); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), sub)
}
