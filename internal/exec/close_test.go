package exec

import (
	"fmt"
	"testing"

	"htapxplain/internal/colstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// TestOperatorCloseIdempotent is the teardown-safety contract parallel
// execution relies on: for every physical operator, double-Close,
// close-after-error and close-without-open must all be harmless no-ops —
// a forked pipeline's teardown may otherwise double-release pooled
// buffers or re-close a child that an error path already closed.
func TestOperatorCloseIdempotent(t *testing.T) {
	tbl := parallelFixture(t, 2*colstore.ChunkSize)
	newScan := func() *ColTableScan { return NewColTableScan(tbl, "p", []int{0, 1, 2}, nil, nil) }
	newMem := func() *memOp {
		return &memOp{schema: Schema{intCol("t", "a")}, rows: rowsOf([]int64{1}, []int64{2})}
	}
	truthy := func(value.Row, *Params) (value.Value, error) { return value.NewBool(true), nil }
	boom := func(value.Row, *Params) (value.Value, error) { return value.Null, fmt.Errorf("boom") }
	passCol := func(row value.Row, _ *Params) (value.Value, error) { return row[0], nil }

	cases := []struct {
		name string
		mk   func() BatchOperator // fresh operator per scenario
	}{
		{"ColTableScan", func() BatchOperator { return newScan() }},
		{"FilterOp", func() BatchOperator { return &FilterOp{Child: newScan(), Pred: truthy} }},
		{"ProjectOp", func() BatchOperator {
			return &ProjectOp{Child: newScan(), Evals: []Evaluator{passCol}, Out: Schema{intCol("p", "k")}}
		}},
		{"NestedLoopJoin", func() BatchOperator {
			return NewNestedLoopJoin(newMem(), newMem(), nil)
		}},
		{"HashJoin", func() BatchOperator {
			return NewHashJoin(newMem(), newMem(), []int{0}, []int{0}, nil, nil)
		}},
		{"HashAggregate", func() BatchOperator {
			return &HashAggregate{Child: newScan(), Aggs: []AggSpec{{Func: sqlparser.AggCount}},
				Out: Schema{intCol("", "count")}}
		}},
		{"SortOp", func() BatchOperator {
			return &SortOp{Child: newScan(), Keys: []SortKey{{Eval: passCol}}}
		}},
		{"TopNOp", func() BatchOperator {
			return &TopNOp{Child: newScan(), Keys: []SortKey{{Eval: passCol}}, N: 3}
		}},
		{"LimitOp", func() BatchOperator { return &LimitOp{Child: newScan(), N: 3} }},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// close-without-open: a tree torn down before Open ever ran
			op := tc.mk()
			if err := op.Close(); err != nil {
				t.Fatalf("close-without-open: %v", err)
			}
			if err := op.Close(); err != nil {
				t.Fatalf("double close-without-open: %v", err)
			}

			// normal lifecycle: open, drain a little, then double-Close
			op = tc.mk()
			ctx := NewContext()
			if err := op.Open(ctx); err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, err := op.Next(ctx); err != nil {
				t.Fatalf("Next: %v", err)
			}
			if err := op.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := op.Close(); err != nil {
				t.Fatalf("double Close: %v", err)
			}

			// reuse after close: pooled runners re-Open closed trees
			if err := op.Open(NewContext()); err != nil {
				t.Fatalf("re-Open after Close: %v", err)
			}
			if err := op.Close(); err != nil {
				t.Fatalf("Close after re-Open: %v", err)
			}
		})
	}

	// close-after-error: an erroring predicate aborts the drain (which
	// closes internally); the caller's deferred Close must still be a
	// no-op on the already-torn-down tree.
	t.Run("close-after-error", func(t *testing.T) {
		roots := []BatchOperator{
			&FilterOp{Child: newScan(), Pred: boom},
			&HashAggregate{Child: &FilterOp{Child: newScan(), Pred: boom},
				Aggs: []AggSpec{{Func: sqlparser.AggCount}}, Out: Schema{intCol("", "count")}},
			&SortOp{Child: &FilterOp{Child: newScan(), Pred: boom}, Keys: []SortKey{{Eval: passCol}}},
			NewHashJoin(newMem(), &FilterOp{Child: newScan(), Pred: boom}, []int{0}, []int{0}, nil, nil),
		}
		for _, root := range roots {
			if _, err := drainOp(root, NewContext()); err == nil {
				t.Fatalf("%T: drain did not surface the predicate error", root)
			}
			if err := root.Close(); err != nil {
				t.Fatalf("%T: Close after error: %v", root, err)
			}
			if err := root.Close(); err != nil {
				t.Fatalf("%T: double Close after error: %v", root, err)
			}
		}
	})
}
