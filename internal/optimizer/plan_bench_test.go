package optimizer

import (
	"testing"

	"htapxplain/internal/sqlparser"
	"htapxplain/internal/workload"
)

// BenchmarkPlanChurnTemplates plans both engines for statements of the
// point-read templates the plan_churn workload re-plans on every request:
// one parse, then PlanTP and PlanAP over it. Its B/op and allocs/op (run
// it with -benchtime 20000x) are what a re-planned request spends
// planning.
func BenchmarkPlanChurnTemplates(b *testing.B) {
	p := testPlanner(b)
	gen := workload.NewGenerator(7)
	var sqls []string
	for _, tmpl := range []string{"join2_point_orders", "topn_indexed_pk", "topn_filtered"} {
		for _, q := range gen.BatchOf(tmpl, 8) {
			sqls = append(sqls, q.SQL)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := sqlparser.Parse(sqls[i%len(sqls)])
		if err != nil {
			b.Fatal(err)
		}
		if planSink, err = p.PlanTP(sel); err != nil {
			b.Fatal(err)
		}
		if planSink, err = p.PlanAP(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// planSink keeps the benchmark's plans live.
var planSink *PhysPlan
