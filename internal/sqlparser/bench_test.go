package sqlparser

import (
	"testing"

	"htapxplain/internal/workload"
)

// frontEndSQL is four literal vectors of each of the benchmark's tp_point
// and ap_scan templates: the statements every read of those workloads
// starts from.
func frontEndSQL() []string {
	g := workload.NewTestGenerator(7)
	var out []string
	for _, tmpl := range []string{
		"join2_point_orders", "topn_indexed_pk", "topn_filtered", "rare_tiny_dim_join", // tp_point
		"join2_lineitem_big", "join2_segment_agg", "rare_agg_nojoin", "topn_price_desc",
		"rare_join4_wide", "join3_phone_inlist", "rare_like_scan", // ap_scan
	} {
		for _, q := range g.BatchOf(tmpl, 4) {
			out = append(out, q.SQL)
		}
	}
	return out
}

// BenchmarkFingerprint is the front end's work on every read the gateway
// serves: the EXPLAIN prefix, the statement kind and the fingerprint. An
// op is one statement.
func BenchmarkFingerprint(b *testing.B) {
	sqls := frontEndSQL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := sqls[i%len(sqls)]
		if _, explain, _ := StripExplain(sql); explain {
			b.Fatal("no EXPLAIN in the workload")
		}
		if StatementKind(sql) != "select" {
			b.Fatalf("%q is not a select", sql)
		}
		if _, _, err := Fingerprint(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse is a read miss's parse. An op is one statement.
func BenchmarkParse(b *testing.B) {
	sqls := frontEndSQL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
}
