package eval

import (
	"testing"

	"htapxplain/internal/expert"
	"htapxplain/internal/explain"
	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

// TestWorkloadDriftRetrainAndCorrect exercises the paper's maintenance
// story end to end (§III-A "it can be quickly retrained to adjust to
// changes in ... underlying data" + §VII stale-knowledge management):
//
//  1. ORDER BY o_totalprice LIMIT k is AP's win (full sort beats TP's scan).
//  2. The DBA adds an index on o_totalprice → TP now serves it in index
//     order and wins; the plan pair changes shape.
//  3. The smart router is retrained on post-drift executions and routes
//     the new shape correctly.
//  4. The old KB entries for this shape are stale; the expert-correction
//     loop writes the new explanation, after which the pipeline grades
//     accurate again.
func TestWorkloadDriftRetrainAndCorrect(t *testing.T) {
	cfg := DefaultEnvConfig()
	cfg.RouterTrainQueries = 80
	cfg.RouterEpochs = 40
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	const q = "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 20"

	before, err := env.Sys.Model(q)
	if err != nil {
		t.Fatal(err)
	}
	if before.Winner != plan.AP {
		t.Fatalf("pre-drift winner = %v, want AP", before.Winner)
	}

	// --- the drift: a new index flips the winner
	if err := env.Sys.AddIndex("orders", "o_totalprice", "idx_totalprice"); err != nil {
		t.Fatal(err)
	}
	after, err := env.Sys.Model(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Winner != plan.TP {
		t.Fatalf("post-drift winner = %v, want TP (index-order Top-N)", after.Winner)
	}
	if sum := plan.Summarize(after.Pair.TP); !sum.UsesIndex {
		t.Fatalf("post-drift TP plan should use the new index:\n%s", after.Pair.TP)
	}

	// --- retrain on post-drift executions (fresh labels)
	gen := workload.NewGenerator(env.Cfg.WorkloadSeed + 1)
	var samples []treecnn.Sample
	for _, wq := range gen.Batch(80) {
		res, err := env.Sys.Model(wq.SQL)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, treecnn.Sample{Pair: &res.Pair, Label: res.Winner})
	}
	retrained := treecnn.New(env.Cfg.RouterSeed)
	rep := retrained.Train(samples, env.Cfg.RouterEpochs, env.Cfg.RouterSeed+1)
	if rep.TrainAcc < 0.9 {
		t.Fatalf("retraining failed to fit: %.2f", rep.TrainAcc)
	}
	if got, _ := retrained.Predict(&after.Pair); got != plan.TP {
		t.Errorf("retrained router routes the drifted shape to %v, want TP", got)
	}

	// --- stale-knowledge correction loop
	ex := explain.New(env.Sys, retrained, env.KB, llm.Doubao(), explain.DefaultOptions())
	truth, err := env.Oracle.Judge(after)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Explain(after)
	if err != nil {
		t.Fatal(err)
	}
	g := expert.GradeExplanation(out.Text(), truth)
	if g.Verdict != expert.VerdictAccurate {
		// the paper's loop: experts correct it into the KB ...
		if err := ex.Feedback(out, env.Oracle.Explain(truth), truth); err != nil {
			t.Fatal(err)
		}
		// ... and the next occurrence retrieves the correction
		out2, err := ex.Explain(after)
		if err != nil {
			t.Fatal(err)
		}
		if g2 := expert.GradeExplanation(out2.Text(), truth); g2.Verdict != expert.VerdictAccurate {
			t.Errorf("post-correction explanation still graded %v: %q", g2.Verdict, out2.Text())
		}
	}
}
