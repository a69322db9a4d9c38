package rowstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/value"
)

// FuzzDMLAccessPath holds LookupLiveAt to ScanLiveAt: over a random history
// of inserts, updates and deletes at increasing LSNs, and indexes built
// and dropped at runtime, a read of a key set or a key range at a random
// snapshot must give the same (RID, row) sequence from the index as from a
// filtered heap scan whenever LookupLiveAt answers — and it must answer
// exactly when the column is indexed and no delete committed after the
// snapshot. The table has a unique int index (k), a non-unique one with
// NULL cells (n, like c_nationkey) and a string column (s) whose index
// comes and goes; reads probe present keys, absent keys and NULL, alone and
// in sets with a duplicate, and ranges between them with open and closed
// ends.
//
// The input is a sequence of (op, arg) byte pairs; see applyAccessOp.
func FuzzDMLAccessPath(f *testing.F) {
	f.Add([]byte{0, 1, 3, 2, 7, 0, 4, 0, 7, 3})
	f.Add([]byte{5, 0, 0, 7, 3, 1, 7, 2, 6, 0, 7, 9, 4, 2, 0, 0, 7, 6})
	// UPDATEs that keep k (and, for args 0 and 12, n too), read between
	f.Add([]byte{0, 1, 0, 2, 3, 0, 7, 0, 3, 12, 3, 0, 7, 1, 3, 3, 7, 4, 3, 12, 7, 3})
	// two-bound ranges — the one-point range p..p and p..p+2, as a WHERE
	// with a lower and an upper bound on one column folds to — on k, n and
	// s, between inserts, an update and a delete
	f.Add([]byte{0, 1, 0, 2, 0, 3, 5, 0, 7, 6, 7, 7, 7, 8, 3, 5, 7, 24, 7, 10, 4, 1, 7, 9, 7, 42, 7, 26})
	for _, seed := range []int64{1, 2, 3, 4} {
		// a random history, then a tail of inserts and reads only, so
		// the index answers reads at snapshots older than the last commit
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 400, 480)
		rng.Read(ops)
		for i := 0; i < 40; i++ {
			ops = append(ops, byte(7*(i%2)), byte(rng.Intn(256)))
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := newAccessHistory(t)
		for i := 0; i+1 < len(ops); i += 2 {
			h.apply(ops[i], ops[i+1])
		}
		for _, col := range []string{"k", "n"} {
			if err := indexMismatch(h.tb, col); err != nil {
				t.Fatal(err)
			}
		}
		// finally every column, at every snapshot, for every read
		for snap := uint64(0); snap <= h.lsn; snap++ {
			for _, col := range []string{"k", "n", "s"} {
				for _, r := range h.reads(col) {
					h.check(col, r, snap)
				}
			}
		}
	})
}

// accessHistory is one fuzz run's store and the facts the checks need.
type accessHistory struct {
	t          *testing.T
	s          *Store
	tb         *Table
	lsn        uint64 // last committed LSN
	lastDelete uint64 // highest LSN a version was deleted at
	nextK      int64

	// scanned holds ScanLiveAt(scanned.snap) as of LSN scanned.lsn: the
	// oracle of every read at that snapshot until the next commit
	scanned struct {
		snap, lsn uint64
		rids      []int64
		rows      []value.Row
	}
}

// scan is ScanLiveAt(snap), read once per snapshot and commit.
func (h *accessHistory) scan(snap uint64) ([]int64, []value.Row) {
	sc := &h.scanned
	if sc.rows == nil || sc.snap != snap || sc.lsn != h.lsn {
		sc.rids, sc.rows = h.tb.ScanLiveAt(snap)
		sc.snap, sc.lsn = snap, h.lsn
	}
	return sc.rids, sc.rows
}

var accessStrings = []string{"ant", "bee", "cat"}

func newAccessHistory(t *testing.T) *accessHistory {
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeInt},
			{Name: "n", Type: catalog.TypeInt},
			{Name: "s", Type: catalog.TypeString},
		},
		Indexes: []catalog.Index{
			{Name: "pk_t", Table: "t", Column: "k", Kind: catalog.PrimaryIndex, Unique: true},
			{Name: "ix_t_n", Table: "t", Column: "n", Kind: catalog.SecondaryIndex},
		},
	}); err != nil {
		t.Fatal(err)
	}
	h := &accessHistory{t: t, nextK: 1}
	var bulk []value.Row
	for i := byte(0); i < 6; i++ {
		bulk = append(bulk, h.newRow(i*37))
	}
	s, err := NewStore(cat, map[string][]value.Row{"t": bulk})
	if err != nil {
		t.Fatal(err)
	}
	h.s = s
	h.tb, _ = s.Table("t")
	return h
}

// newRow is a row with a fresh k; arg picks n (NULL one time in five)
// and s (NULL one time in four).
func (h *accessHistory) newRow(arg byte) value.Row {
	r := value.Row{value.NewInt(h.nextK), value.NewInt(int64(arg % 4)), value.NewString(accessStrings[arg%3])}
	h.nextK++
	if arg%5 == 0 {
		r[1] = value.Null
	}
	if arg%4 == 3 {
		r[2] = value.Null
	}
	return r
}

// apply runs one step: op picks insert (three times in eight), update,
// delete, build or drop the string index, or a read check; arg picks the
// row, the values and the snapshot.
func (h *accessHistory) apply(op, arg byte) {
	t := h.t
	liveRIDs, liveRows := h.tb.ScanLiveAt(h.lsn)
	switch op % 8 {
	case 0, 1, 2: // insert one or two rows
		ins := []value.Row{h.newRow(arg)}
		if arg&0x80 != 0 {
			ins = append(ins, h.newRow(arg>>1))
		}
		h.commit(nil, ins)
	case 3: // update: keep k, change n and s
		if len(liveRIDs) == 0 {
			return
		}
		i := int(arg) % len(liveRIDs)
		nr := h.newRow(arg / 3)
		h.nextK--
		nr[0] = liveRows[i][0]
		h.commit([]int64{liveRIDs[i]}, []value.Row{nr})
	case 4: // delete
		if len(liveRIDs) == 0 {
			return
		}
		h.commit([]int64{liveRIDs[int(arg)%len(liveRIDs)]}, nil)
	case 5:
		if err := h.s.BuildIndex("t", "s"); err != nil {
			t.Fatal(err)
		}
	case 6:
		_ = h.s.DropIndex("t", "s") // absent is fine
	case 7:
		col := []string{"k", "n", "s"}[arg%3]
		reads := h.reads(col)
		h.check(col, reads[int(arg/3)%len(reads)], uint64(arg)%(h.lsn+1))
	}
}

func (h *accessHistory) commit(deletes []int64, inserts []value.Row) {
	h.lsn++
	if _, err := h.s.ApplyAt("t", deletes, inserts, h.lsn); err != nil {
		h.t.Fatal(err)
	}
	h.s.PublishCommit(h.lsn)
	if len(deletes) > 0 {
		h.lastDelete = h.lsn
	}
}

// probes lists the keys reads of col try: every value the column can
// hold, a key it never holds, and NULL.
func (h *accessHistory) probes(col string) []value.Value {
	out := []value.Value{value.Null}
	switch col {
	case "k": // 0 and nextK are absent; up to 16 keys between
		step := h.nextK/16 + 1
		for k := int64(0); k <= h.nextK; k += step {
			out = append(out, value.NewInt(k))
		}
		out = append(out, value.NewInt(h.nextK))
	case "n":
		for n := int64(0); n <= 4; n++ {
			out = append(out, value.NewInt(n))
		}
	case "s":
		for _, s := range append(accessStrings, "dog") {
			out = append(out, value.NewString(s))
		}
	}
	return out
}

// accessRead is one LookupLiveAt read: the keys, or when keys is nil the
// inclusive range lo..hi (nil: open).
type accessRead struct {
	keys   []value.Value
	lo, hi *value.Value
}

// holds reports whether the read selects a row whose column is v.
func (r accessRead) holds(v value.Value) bool {
	if r.keys != nil {
		return slices.ContainsFunc(r.keys, func(k value.Value) bool { return v.Compare(k) == 0 })
	}
	return (r.lo == nil || v.Compare(*r.lo) >= 0) && (r.hi == nil || v.Compare(*r.hi) <= 0)
}

func (r accessRead) String() string {
	if r.keys != nil {
		return fmt.Sprintf("IN %v", r.keys)
	}
	bound := func(b *value.Value) string {
		if b == nil {
			return "open"
		}
		return b.String()
	}
	return fmt.Sprintf("BETWEEN %s AND %s", bound(r.lo), bound(r.hi))
}

// reads lists the reads of col a check tries. For each probe key p_i (of
// n): p_i alone; the set {p_i, p_i+1, p_i}, a duplicate among its keys;
// the closed range p_i..p_i+2, empty when the probes run backwards there;
// the one-point range p_i..p_i; and the ranges open below p_i and above
// it.
func (h *accessHistory) reads(col string) []accessRead {
	probes := h.probes(col)
	n := len(probes)
	var out []accessRead
	for i := range probes {
		p, next := &probes[i], probes[(i+1)%n]
		out = append(out,
			accessRead{keys: []value.Value{*p}},
			accessRead{keys: []value.Value{*p, next, *p}},
			accessRead{lo: p, hi: &probes[(i+2)%n]},
			accessRead{lo: p, hi: p},
			accessRead{hi: p},
			accessRead{lo: p})
	}
	return out
}

// check compares LookupLiveAt with a filtered ScanLiveAt for one read.
func (h *accessHistory) check(col string, r accessRead, snap uint64) {
	t := h.t
	t.Helper()
	rids, rows, ok := h.tb.LookupLiveAt(col, r.keys, r.lo, r.hi, snap)
	_, indexed := h.tb.IndexOn(col)
	if want := indexed && h.lastDelete <= snap; ok != want {
		t.Fatalf("LookupLiveAt(%s %v, snap %d) ok = %v, want %v (indexed %v, last delete at %d)",
			col, r, snap, ok, want, indexed, h.lastDelete)
	}
	if !ok {
		return
	}
	ci := h.tb.Meta.ColumnIndex(col)
	allRIDs, allRows := h.scan(snap)
	var wantRIDs []int64
	var wantRows []value.Row
	for i, row := range allRows {
		if r.holds(row[ci]) {
			wantRIDs = append(wantRIDs, allRIDs[i])
			wantRows = append(wantRows, row)
		}
	}
	if len(rids) != len(wantRIDs) || len(rows) != len(rids) {
		t.Fatalf("LookupLiveAt(%s %v, snap %d) = RIDs %v, scan gives %v", col, r, snap, rids, wantRIDs)
	}
	for i := range rids {
		if rids[i] != wantRIDs[i] || !rowsEqual(rows[i], wantRows[i]) {
			t.Fatalf("LookupLiveAt(%s %v, snap %d)[%d] = %d %v, scan gives %d %v",
				col, r, snap, i, rids[i], rows[i], wantRIDs[i], wantRows[i])
		}
	}
}

func rowsEqual(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 || a[i].K != b[i].K {
			return false
		}
	}
	return true
}

// indexMismatch holds the index on col to the live heap: one entry per
// distinct live key, in key order, each posting the key's live RIDs in
// heap order. It describes the first difference, or returns nil.
func indexMismatch(tb *Table, col string) error {
	ix, ok := tb.IndexOn(col)
	if !ok {
		return fmt.Errorf("no index on %s", col)
	}
	rids, rows := tb.ScanLiveAt(math.MaxUint64)
	order := make([]int, len(rids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rows[order[a]][ix.Col].Compare(rows[order[b]][ix.Col]) < 0 })
	var keys []value.Value
	var postings [][]int32
	for _, i := range order {
		key := rows[i][ix.Col]
		if n := len(keys); n == 0 || keys[n-1].Compare(key) != 0 {
			keys = append(keys, key)
			postings = append(postings, nil)
		}
		postings[len(postings)-1] = append(postings[len(postings)-1], int32(rids[i]))
	}
	if ix.Len() != len(keys) {
		return fmt.Errorf("index on %s has %d keys, the live heap %d", col, ix.Len(), len(keys))
	}
	for i, key := range keys {
		if ix.keys[i].Compare(key) != 0 || !slices.Equal(ix.rowIDs[i], postings[i]) {
			return fmt.Errorf("index on %s entry %d = %v %v, the live heap gives %v %v",
				col, i, ix.keys[i], ix.rowIDs[i], key, postings[i])
		}
	}
	return nil
}

// TestIndexOrderAfterUpdates: an UPDATE indexes its new version before it
// unindexes the old one. Whether it keeps the unique k and the non-unique
// n, keeps k and changes n, or changes k, every posting stays in heap
// order and Index.Len() counts the distinct live keys.
func TestIndexOrderAfterUpdates(t *testing.T) {
	h := newAccessHistory(t)
	var ins []value.Row
	for i := byte(0); i < 12; i++ {
		ins = append(ins, h.newRow(i*11))
	}
	h.commit(nil, ins)
	check := func(what string) {
		t.Helper()
		for _, col := range []string{"k", "n"} {
			if err := indexMismatch(h.tb, col); err != nil {
				t.Fatalf("after %s: %v", what, err)
			}
		}
	}
	check("the inserts")
	kIx, _ := h.tb.IndexOn("k")
	update := func(i int, mk func(old value.Row) value.Row) {
		rids, rows := h.tb.ScanLiveAt(h.lsn)
		h.commit([]int64{rids[i]}, []value.Row{mk(rows[i])})
	}
	for i := 0; i < 8; i++ { // same k, same n
		keys := kIx.Len()
		update(i*2, func(old value.Row) value.Row {
			return value.Row{old[0], old[1], value.NewString(fmt.Sprint("u", i))}
		})
		check(fmt.Sprint("same-key update ", i))
		if kIx.Len() != keys {
			t.Fatalf("a same-key update changed the key count: %d -> %d", keys, kIx.Len())
		}
	}
	for i := 0; i < 8; i++ { // same k, n moves between postings
		update(i, func(old value.Row) value.Row {
			return value.Row{old[0], value.NewInt(int64(i % 3)), old[2]}
		})
		check(fmt.Sprint("n-changing update ", i))
	}
	for i := 0; i < 6; i++ { // new k, same n
		update(i*3, func(old value.Row) value.Row {
			r := value.Row{value.NewInt(h.nextK), old[1], old[2]}
			h.nextK++
			return r
		})
		check(fmt.Sprint("k-changing update ", i))
	}
	rids, _ := h.tb.ScanLiveAt(h.lsn)
	h.commit(rids[:5], nil)
	check("the deletes")
}
