package htap

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"htapxplain/internal/value"
)

// A point UPDATE or DELETE reads its rows through the row store's index
// at its snapshot (rowstore.Table.LookupLiveAt); the index holds only
// versions live now, so a delete committed after the snapshot sends the
// statement back to the heap scan. These tests hold both halves: the
// fallback keeps snapshot isolation, and the index path's cost does not
// grow with the table.

// TestPointDMLSeesSnapshotAfterConcurrentDelete: a concurrent commit
// updates and then deletes key k after a transaction pinned its snapshot.
// The transaction's UPDATE ... WHERE c_custkey = k (or a key set or key
// range holding k) still sees k's version at the snapshot — the one the
// concurrent update tombstoned — and its commit must lose with
// ErrConflict. An index read that missed that version would match 0 rows
// and commit: a lost update.
func TestPointDMLSeesSnapshotAfterConcurrentDelete(t *testing.T) {
	s := newUnmergedSystem(t)
	const point = "c_custkey = %[1]d AND c_mktsegment <> 'x'"
	cases := []struct {
		name  string
		key   int64
		stmts []string // run before the UPDATE under test, in the same txn
		where string   // the UPDATE's WHERE: %[1]d is k, %[2]d k-1, %[3]d k+1
	}{
		{name: "block", key: 11, where: point, stmts: []string{
			"UPDATE customer SET c_comment = 'block' WHERE c_custkey = 12"}},
		{name: "autocommit", key: 13, where: point},
		{name: "in", key: 15, where: "c_custkey IN (%[1]d, %[1]d, 999999) AND c_mktsegment <> 'x'"},
		{name: "range", key: 17, where: "c_custkey > %[2]d AND c_custkey < %[3]d AND c_mktsegment <> 'x'"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tx := s.Begin()
			for _, q := range tc.stmts {
				if _, err := tx.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range []string{
				fmt.Sprintf("UPDATE customer SET c_acctbal = 1.5 WHERE c_custkey = %d", tc.key),
				fmt.Sprintf("DELETE FROM customer WHERE c_custkey = %d", tc.key),
			} {
				if _, err := s.Exec(q); err != nil {
					t.Fatalf("concurrent %q: %v", q, err)
				}
			}
			res, err := tx.Exec("UPDATE customer SET c_comment = 'late' WHERE " +
				fmt.Sprintf(tc.where, tc.key, tc.key-1, tc.key+1))
			if err != nil {
				t.Fatal(err)
			}
			if res.RowsAffected != 1 {
				t.Fatalf("UPDATE at the snapshot affected %d rows, want 1", res.RowsAffected)
			}
			if _, err := tx.Commit(); !errors.Is(err, ErrConflict) {
				t.Fatalf("Commit = %v, want ErrConflict", err)
			}
		})
	}
	if got := countWhere(t, s, "customer WHERE c_comment = 'late' OR c_comment = 'block'"); got != 0 {
		t.Fatalf("%d rows carry a conflicted transaction's write", got)
	}
	assertStoresEqual(t, s)
}

// TestPointDMLSkipsOwnDeletes: a transaction that deleted key k matches
// nothing when it updates k, on the index path as on the scan.
func TestPointDMLSkipsOwnDeletes(t *testing.T) {
	s := newUnmergedSystem(t)
	tx := s.Begin()
	defer tx.Rollback()
	res, err := tx.Exec("DELETE FROM customer WHERE c_custkey = 21")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("DELETE affected %d rows, want 1", res.RowsAffected)
	}
	res, err = tx.Exec("UPDATE customer SET c_comment = 'gone' WHERE c_custkey = 21")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 0 {
		t.Fatalf("UPDATE of a row the transaction deleted affected %d rows, want 0", res.RowsAffected)
	}
}

// TestPointDMLAllocs gates the cost of a point UPDATE on the table's
// size: the bytes one UPDATE customer ... WHERE c_custkey = k allocates
// at 1k and at 20k live rows must differ by less than one customer row.
// A read that copied every visible RID and row would grow by about 32 B
// per live row. Each UPDATE is measured on its own and the median taken, so
// the rare amortised growth of the heap's slices does not count.
func TestPointDMLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	s := newUnmergedSystem(t)
	meta, _ := s.Cat.Table("customer")
	rowBytes := uint64(unsafe.Sizeof(value.Row{})) +
		uint64(len(meta.Columns))*uint64(unsafe.Sizeof(value.Value{}))

	growCustomers(t, s, 1000)
	small := pointUpdateBytes(t, s, 1000)
	growCustomers(t, s, 20_000)
	large := pointUpdateBytes(t, s, 20_000)
	t.Logf("bytes per point UPDATE: %d at 1k live rows, %d at 20k (one row is %d B)", small, large, rowBytes)
	if diff := max(small, large) - min(small, large); diff >= rowBytes {
		t.Fatalf("a point UPDATE allocates %d B at 1k live rows but %d B at 20k: it grows with the table", small, large)
	}
}

// growCustomers inserts customers after the table's highest key until
// keys 1..n are all live.
func growCustomers(t *testing.T, s *System, n int64) {
	t.Helper()
	tbl, _ := s.Row.Table("customer")
	for k := int64(tbl.NumLive()) + 1; k <= n; {
		var b strings.Builder
		b.WriteString("INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) VALUES ")
		for i := 0; i < 500 && k <= n; i, k = i+1, k+1 {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, 'grown', 'addr', 1, '21-000', 0.00, 'machinery', 'grown row')", k)
		}
		if _, err := s.Exec(b.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// pointUpdateBytes reports the median bytes allocated by a point UPDATE,
// its replication included, on a customer table of n live rows (keys 1..n)
// with empty deltas.
func pointUpdateBytes(t *testing.T, s *System, n int64) uint64 {
	t.Helper()
	tbl, _ := s.Row.Table("customer")
	if live := tbl.NumLive(); int64(live) != n {
		t.Fatalf("customer has %d live rows, want %d", live, n)
	}
	if err := s.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Col.MergeAll()
	const runs = 101
	bytes := make([]uint64, 0, runs)
	var before, after runtime.MemStats
	// the first pass warms the replication path, whose first update of a
	// row allocates more than its later ones; the second is measured
	for pass := 0; pass < 2; pass++ {
		bytes = bytes[:0]
		for i := int64(0); i < runs; i++ {
			sql := fmt.Sprintf("UPDATE customer SET c_acctbal = 2.5 WHERE c_custkey = %d", 1+i*n/runs)
			runtime.ReadMemStats(&before)
			res, err := s.Exec(sql)
			if err == nil {
				err = s.WaitFresh(5 * time.Second)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.RowsAffected != 1 {
				t.Fatalf("%q affected %d rows, want 1", sql, res.RowsAffected)
			}
			bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
		}
	}
	sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
	return bytes[runs/2]
}

// TestPointDMLIgnoresLaterInsert: a key inserted after the snapshot is in
// the index but not visible to the transaction, so its UPDATE of that key
// matches nothing.
func TestPointDMLIgnoresLaterInsert(t *testing.T) {
	s := newUnmergedSystem(t)
	tx := s.Begin()
	defer tx.Rollback()
	if _, err := s.Exec(customerInsert(3_000_101)); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Exec("UPDATE customer SET c_comment = 'unseen' WHERE c_custkey = 3000101")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 0 {
		t.Fatalf("UPDATE of a key inserted after the snapshot affected %d rows, want 0", res.RowsAffected)
	}
}
