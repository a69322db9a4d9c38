package htap

import (
	"testing"

	"htapxplain/internal/value"
	"htapxplain/internal/workload"
)

// Storage-immutability regression suite: execution batches alias row-store
// heaps and column-store vectors directly, so any operator that mutates an
// input (the PR 1 SortOp aliasing-bug class — sorting a storage-aliased
// slice in place) silently corrupts the database for every later query.
// These tests snapshot both stores, push the full differential workload
// through both engines, and assert storage is byte-identical afterwards.

// storageSnapshot is a deep copy of every stored value in both engines.
type storageSnapshot struct {
	rows map[string][]value.Row     // row store: table → cloned heap rows
	cols map[string][][]value.Value // column store: table → per-column vectors
}

func snapshotStorage(t *testing.T, s *System) *storageSnapshot {
	t.Helper()
	snap := &storageSnapshot{
		rows: map[string][]value.Row{},
		cols: map[string][][]value.Value{},
	}
	for _, meta := range s.Cat.Tables() {
		rt, ok := s.Row.Table(meta.Name)
		if !ok {
			t.Fatalf("row store missing %q", meta.Name)
		}
		heap := rt.Scan()
		rows := make([]value.Row, len(heap))
		for i, r := range heap {
			rows[i] = r.Clone()
		}
		snap.rows[meta.Name] = rows

		ct, ok := s.Col.Table(meta.Name)
		if !ok {
			t.Fatalf("column store missing %q", meta.Name)
		}
		vecs := make([][]value.Value, len(meta.Columns))
		for c := range meta.Columns {
			col := ct.Column(c)
			vec := make([]value.Value, col.Len())
			for i := range vec {
				vec[i] = col.Value(i)
			}
			vecs[c] = vec
		}
		snap.cols[meta.Name] = vecs
	}
	return snap
}

// diffStorage reports the first mutation found, or "" if storage is
// byte-identical to the snapshot.
func (snap *storageSnapshot) diffStorage(t *testing.T, s *System) string {
	t.Helper()
	for _, meta := range s.Cat.Tables() {
		rt, _ := s.Row.Table(meta.Name)
		heap := rt.Scan()
		want := snap.rows[meta.Name]
		if len(heap) != len(want) {
			return "rowstore " + meta.Name + ": heap length changed"
		}
		for i, r := range heap {
			for c, v := range r {
				if v != want[i][c] {
					return "rowstore " + meta.Name + ": row " + itoa(i) + " col " + itoa(c) +
						" mutated: " + want[i][c].String() + " → " + v.String()
				}
			}
		}
		ct, _ := s.Col.Table(meta.Name)
		for c := range meta.Columns {
			col := ct.Column(c)
			want := snap.cols[meta.Name][c]
			if col.Len() != len(want) {
				return "colstore " + meta.Name + ": column " + itoa(c) + " length changed"
			}
			for i := range want {
				if v := col.Value(i); v != want[i] {
					return "colstore " + meta.Name + ": col " + itoa(c) + " row " + itoa(i) +
						" mutated: " + want[i].String() + " → " + v.String()
				}
			}
		}
	}
	return ""
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestStorageImmutableUnderDifferentialWorkload runs every workload
// template through both engines and verifies neither store changed. CI
// additionally runs this under -race, which also catches concurrent
// mutation of shared storage.
func TestStorageImmutableUnderDifferentialWorkload(t *testing.T) {
	s := newSystem(t)
	before := snapshotStorage(t, s)
	gen := workload.NewTestGenerator(20260725)
	for _, q := range gen.Batch(48) {
		if _, err := s.Run(q.SQL); err != nil {
			t.Fatalf("[%s] Run(%q): %v", q.Template, q.SQL, err)
		}
	}
	if diff := before.diffStorage(t, s); diff != "" {
		t.Fatalf("storage mutated by workload: %s", diff)
	}
}

// TestStorageImmutableUnderSortedQueries focuses on the historical bug
// class: ORDER BY over storage-backed scans must never reorder the heap or
// the column vectors.
func TestStorageImmutableUnderSortedQueries(t *testing.T) {
	s := newSystem(t)
	before := snapshotStorage(t, s)
	queries := []string{
		`SELECT * FROM nation ORDER BY n_name DESC`,
		`SELECT * FROM customer ORDER BY c_acctbal`,
		`SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 7`,
		`SELECT c_name, c_acctbal FROM customer WHERE c_acctbal > 0 ORDER BY c_name LIMIT 5 OFFSET 3`,
	}
	for _, sql := range queries {
		if _, err := s.Run(sql); err != nil {
			t.Fatalf("Run(%q): %v", sql, err)
		}
	}
	if diff := before.diffStorage(t, s); diff != "" {
		t.Fatalf("storage mutated by ordered queries: %s", diff)
	}
}
