package rowstore

import (
	"strings"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/repl"
	"htapxplain/internal/value"
)

func replayFixture(t *testing.T) (*catalog.Catalog, *Store) {
	t.Helper()
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeInt},
			{Name: "s", Type: catalog.TypeString},
		},
		Indexes: []catalog.Index{{Name: "pk_t", Table: "t", Column: "k", Kind: catalog.PrimaryIndex}},
		Rows:    2,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(cat, map[string][]value.Row{"t": {
		{value.NewInt(1), value.NewString("a")},
		{value.NewInt(2), value.NewString("b")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return cat, s
}

func TestReplayMatchesLiveWritePath(t *testing.T) {
	// the invariant recovery rests on: replaying the mutations the live
	// path emitted reproduces the same heap, LSNs, indexes and live set
	_, live := replayFixture(t)
	m1 := commit(t, live, nil, []value.Row{{value.NewInt(3), value.NewString("c")}})
	m2 := commit(t, live, []int64{0}, []value.Row{{value.NewInt(1), value.NewString("a2")}})
	m3 := commit(t, live, []int64{1}, nil)

	_, rec := replayFixture(t)
	for _, m := range []*repl.Mutation{m1, m2, m3} {
		if err := rec.Replay(m); err != nil {
			t.Fatalf("Replay(LSN %d): %v", m.LSN, err)
		}
	}
	if rec.CommitLSN() != live.CommitLSN() {
		t.Fatalf("commit LSN %d != live %d", rec.CommitLSN(), live.CommitLSN())
	}
	lt, _ := live.Table("t")
	rt, _ := rec.Table("t")
	ls, rs := lt.SnapshotHeap(), rt.SnapshotHeap()
	if len(ls.Rows) != len(rs.Rows) {
		t.Fatalf("heap sizes diverge: %d vs %d", len(ls.Rows), len(rs.Rows))
	}
	for i := range ls.Rows {
		if ls.Rows[i].String() != rs.Rows[i].String() || ls.Versions[i] != rs.Versions[i] {
			t.Fatalf("slot %d diverges: %v/%v vs %v/%v",
				i, ls.Rows[i], ls.Versions[i], rs.Rows[i], rs.Versions[i])
		}
	}
	ix, _ := rt.IndexOn("k")
	if ids := ix.Lookup(value.NewInt(2)); len(ids) != 0 {
		t.Fatalf("deleted key still indexed after replay: %v", ids)
	}
	if ids := ix.Lookup(value.NewInt(3)); len(ids) != 1 {
		t.Fatalf("replayed insert not indexed: %v", ids)
	}
}

func TestReplayRejectsDivergence(t *testing.T) {
	cases := []struct {
		name string
		mut  *repl.Mutation
		want string
	}{
		{"unknown table", &repl.Mutation{LSN: 1, Table: "ghost"}, "unknown table"},
		{"stale LSN", &repl.Mutation{LSN: 0, Table: "t"}, "log resumes at LSN 0"},
		{"LSN gap", &repl.Mutation{LSN: 2, Table: "t", Deletes: []int64{0}}, "log resumes at LSN 2"},
		{"rid gap", &repl.Mutation{LSN: 1, Table: "t",
			Inserts: []repl.RowVersion{{RID: 99, Row: value.Row{value.NewInt(9), value.NewString("x")}}}},
			"divergence"},
		{"dead delete", &repl.Mutation{LSN: 1, Table: "t", Deletes: []int64{7}}, "no row"},
		{"width mismatch", &repl.Mutation{LSN: 1, Table: "t",
			Inserts: []repl.RowVersion{{RID: 2, Row: value.Row{value.NewInt(9)}}}},
			"columns"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, s := replayFixture(t)
			err := s.Replay(tc.mut)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Replay = %v, want error containing %q", err, tc.want)
			}
			// a rejected replay must not have consumed the LSN or touched the heap
			if tb, _ := s.Table("t"); s.CommitLSN() != 0 || tb.NumLive() != 2 || tb.NumRows() != 2 {
				t.Fatalf("failed replay left LSN %d, %d live of %d rows", s.CommitLSN(), tb.NumLive(), tb.NumRows())
			}
		})
	}
}
