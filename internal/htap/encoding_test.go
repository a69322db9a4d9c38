package htap

import (
	"testing"

	"htapxplain/internal/colstore"
	"htapxplain/internal/exec"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
	"htapxplain/internal/workload"
)

// Encoded-storage differential suite: the column store's per-chunk
// encodings are physical layout only — under every policy the engine must
// return the same results as over raw storage, and queries must never
// mutate the encoded representations. Serial execution is held to the
// strongest standard: byte-identical results (the encoded kernels
// accumulate in row order, so there is no float tolerance to hide behind).
// CI runs TestEncoded* under -race at DOP 4.

func newSystemEnc(t *testing.T, p colstore.EncodingPolicy) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Encoding = p
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", p, err)
	}
	return s
}

// runAP plans and executes the query's AP plan at the given DOP.
func runAP(t *testing.T, s *System, sql string, dop int) []value.Row {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	p, err := s.Planner.PlanAP(sel)
	if err != nil {
		t.Fatalf("PlanAP(%q): %v", sql, err)
	}
	ctx := exec.NewContext()
	ctx.DOP = dop
	rows, err := p.Execute(ctx)
	if err != nil {
		t.Fatalf("Execute(%q, dop=%d): %v", sql, dop, err)
	}
	return rows
}

// bitEq compares two values bit-for-bit (NaN equals NaN, -0.0 differs
// from +0.0) — the storage- and result-identity comparator.
func bitEq(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S
}

// bitRowKey renders a row with exact float bits — no rounding tolerance.
func bitRowKey(r value.Row) string {
	var b []byte
	for _, v := range r {
		b = append(b, v.Key()...)
		b = append(b, '|')
	}
	return string(b)
}

func sameMultiset(a, b []value.Row, key func(value.Row) string) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, r := range a {
		counts[key(r)]++
	}
	for _, r := range b {
		counts[key(r)]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// encChunkCopy is a deep copy of one chunk's physical representation.
type encChunkCopy struct {
	enc     colstore.Encoding
	raw     []value.Value
	dict    []value.Value
	codes   []uint16
	base    int64
	width   uint8
	packed  []uint64
	runVals []value.Value
	runEnds []int32
}

// snapshotEncoded deep-copies every encoded chunk of every column — the
// encoded counterpart of snapshotStorage's decoded vectors.
func snapshotEncoded(t *testing.T, s *System) map[string][][]encChunkCopy {
	t.Helper()
	out := map[string][][]encChunkCopy{}
	for _, meta := range s.Cat.Tables() {
		ct, ok := s.Col.Table(meta.Name)
		if !ok {
			t.Fatalf("column store missing %q", meta.Name)
		}
		cols := make([][]encChunkCopy, len(meta.Columns))
		for c := range meta.Columns {
			col := ct.Column(c)
			n := (col.Len() + colstore.ChunkSize - 1) / colstore.ChunkSize
			chunks := make([]encChunkCopy, n)
			for k := 0; k < n; k++ {
				ch := col.Chunk(k)
				chunks[k] = encChunkCopy{
					enc:     ch.Enc,
					raw:     append([]value.Value(nil), ch.Raw...),
					dict:    append([]value.Value(nil), ch.Dict...),
					codes:   append([]uint16(nil), ch.Codes...),
					base:    ch.Base,
					width:   ch.Width,
					packed:  append([]uint64(nil), ch.Packed...),
					runVals: append([]value.Value(nil), ch.RunVals...),
					runEnds: append([]int32(nil), ch.RunEnds...),
				}
			}
			cols[c] = chunks
		}
		out[meta.Name] = cols
	}
	return out
}

// diffEncoded reports the first byte-level divergence between the live
// column store and the snapshot, or "".
func diffEncoded(t *testing.T, s *System, snap map[string][][]encChunkCopy) string {
	t.Helper()
	valsEq := func(a []value.Value, b []value.Value) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bitEq(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	for _, meta := range s.Cat.Tables() {
		ct, _ := s.Col.Table(meta.Name)
		want := snap[meta.Name]
		for c := range meta.Columns {
			col := ct.Column(c)
			n := (col.Len() + colstore.ChunkSize - 1) / colstore.ChunkSize
			if n != len(want[c]) {
				return meta.Name + " col " + itoa(c) + ": chunk count changed"
			}
			for k := 0; k < n; k++ {
				ch, w := col.Chunk(k), want[c][k]
				loc := meta.Name + " col " + itoa(c) + " chunk " + itoa(k)
				switch {
				case ch.Enc != w.enc:
					return loc + ": encoding changed"
				case !valsEq(ch.Raw, w.raw) || !valsEq(ch.Dict, w.dict) || !valsEq(ch.RunVals, w.runVals):
					return loc + ": values mutated"
				case len(ch.Codes) != len(w.codes) || len(ch.Packed) != len(w.packed) || len(ch.RunEnds) != len(w.runEnds):
					return loc + ": physical layout changed"
				case ch.Base != w.base || ch.Width != w.width:
					return loc + ": FoR frame mutated"
				}
				for i := range ch.Codes {
					if ch.Codes[i] != w.codes[i] {
						return loc + ": dictionary codes mutated"
					}
				}
				for i := range ch.Packed {
					if ch.Packed[i] != w.packed[i] {
						return loc + ": packed words mutated"
					}
				}
				for i := range ch.RunEnds {
					if ch.RunEnds[i] != w.runEnds[i] {
						return loc + ": run boundaries mutated"
					}
				}
			}
		}
	}
	return ""
}

// TestEncodedDifferentialAcrossPolicies runs the differential workload's
// AP plans at DOP 1 and 4 over a system per encoding policy: results must
// match the raw-storage reference (bit-identical when serial; rounded
// multiset at DOP 4, where worker scheduling reorders float accumulation
// even on raw storage), and the encoded storage must be byte-identical
// before and after.
func TestEncodedDifferentialAcrossPolicies(t *testing.T) {
	ref := newSystemEnc(t, colstore.PolicyRaw)
	defer ref.Close()
	gen := workload.NewTestGenerator(20260807)
	queries := gen.Batch(16)
	type rk struct{ q, dop int }
	want := map[rk][]value.Row{}
	for qi, q := range queries {
		for _, dop := range []int{1, 4} {
			want[rk{qi, dop}] = runAP(t, ref, q.SQL, dop)
		}
	}
	for _, p := range []colstore.EncodingPolicy{
		colstore.PolicyAuto, colstore.PolicyDict, colstore.PolicyFoR, colstore.PolicyRLE,
	} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := newSystemEnc(t, p)
			defer s.Close()
			snap := snapshotEncoded(t, s)
			for qi, q := range queries {
				for _, dop := range []int{1, 4} {
					got := runAP(t, s, q.SQL, dop)
					w := want[rk{qi, dop}]
					if dop == 1 {
						if !sameMultiset(got, w, bitRowKey) {
							t.Errorf("[%s] dop=1 results not byte-identical to raw reference (%d vs %d rows):\n%s",
								q.Template, len(got), len(w), q.SQL)
						}
					} else if !sameMultiset(got, w, rowKey) {
						t.Errorf("[%s] dop=%d results diverge from raw reference (%d vs %d rows):\n%s",
							q.Template, dop, len(got), len(w), q.SQL)
					}
				}
			}
			if d := diffEncoded(t, s, snap); d != "" {
				t.Errorf("encoded storage mutated by workload: %s", d)
			}
		})
	}
}

// TestEncodedStorageImmutableUnderFullWorkload extends the storage-
// immutability suite to encoded storage under the default (auto) policy:
// the full differential workload through both engines must leave every
// encoded chunk byte-identical, and the decoded view of storage unchanged.
func TestEncodedStorageImmutableUnderFullWorkload(t *testing.T) {
	s := newSystemEnc(t, colstore.PolicyAuto)
	defer s.Close()
	stats := s.Col.MemStats()
	if stats.ChunksByEnc[colstore.EncDict]+stats.ChunksByEnc[colstore.EncFoR]+stats.ChunksByEnc[colstore.EncRLE] == 0 {
		t.Fatal("precondition: auto policy encoded nothing")
	}
	before := snapshotStorage(t, s)
	encBefore := snapshotEncoded(t, s)
	gen := workload.NewTestGenerator(20260726)
	for _, q := range gen.Batch(32) {
		if _, err := s.Run(q.SQL); err != nil {
			t.Fatalf("[%s] Run(%q): %v", q.Template, q.SQL, err)
		}
	}
	if diff := before.diffStorage(t, s); diff != "" {
		t.Fatalf("decoded storage view mutated: %s", diff)
	}
	if diff := diffEncoded(t, s, encBefore); diff != "" {
		t.Fatalf("encoded storage mutated: %s", diff)
	}
}
