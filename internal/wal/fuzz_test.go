package wal

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"htapxplain/internal/repl"
	"htapxplain/internal/value"
)

// FuzzWALDecode feeds arbitrary bytes to the segment reader. The contract
// under attack: whatever the bytes are — a valid log, a truncation at any
// offset, bit flips, or pure noise — decoding must never panic, must stop
// at the first damaged frame, and every record it does return must be
// intact: its frame re-encodes to the exact bytes consumed, and a mutation
// body decodes to a mutation whose canonical encoding is that body. CRC
// collisions are the only way a corrupt record could leak through, and a
// 2^-32 accident is beyond the fuzzer's reach.
func FuzzWALDecode(f *testing.F) {
	// seed: a healthy two-record log
	var healthy []byte
	for lsn := uint64(1); lsn <= 2; lsn++ {
		healthy = appendFrame(healthy, Record{
			LSN: lsn, Kind: KindMutation,
			Body: EncodeMutation(&repl.Mutation{
				LSN: lsn, Table: "customer",
				Deletes: []int64{4},
				Inserts: []repl.RowVersion{{RID: 9, Row: value.Row{
					value.NewInt(7), value.NewString("x"), value.NewFloat(1.5),
					value.Null, value.NewBool(true),
				}}},
			}),
		})
	}
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-5]) // torn tail
	flipped := append([]byte(nil), healthy...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped) // bit flip
	f.Add(appendFrame(nil, Record{LSN: 3, Kind: KindShutdown}))
	// a committed two-table transaction record (consecutive LSNs, record
	// stamped with the last)
	txnBody := EncodeTxn([]*repl.Mutation{
		{LSN: 5, Table: "customer", Deletes: []int64{1},
			Inserts: []repl.RowVersion{{RID: 10, Row: value.Row{value.NewInt(1), value.NewString("a")}}}},
		{LSN: 6, Table: "orders",
			Inserts: []repl.RowVersion{{RID: 3, Row: value.Row{value.NewFloat(2.5), value.Null}}}},
	})
	f.Add(appendFrame(nil, Record{LSN: 6, Kind: KindTxn, Body: txnBody}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		off := 0
		for {
			rec, n, err := readFrame(br)
			if err != nil {
				// EOF or errTorn: either way the reader stops; nothing to
				// verify beyond "no panic, no phantom record"
				break
			}
			if off+n > len(data) {
				t.Fatalf("frame claims %d bytes at offset %d beyond %d-byte input", n, off, len(data))
			}
			// the frame must re-encode byte-identically to what was read
			reenc := appendFrame(nil, rec)
			if !bytes.Equal(reenc, data[off:off+n]) {
				t.Fatalf("frame at %d is not canonical:\n read %x\nreenc %x", off, data[off:off+n], reenc)
			}
			if rec.Kind == KindMutation {
				mut, err := DecodeMutation(rec.LSN, rec.Body)
				if err == nil {
					// accepted mutations round-trip exactly
					if !bytes.Equal(EncodeMutation(mut), rec.Body) {
						t.Fatalf("mutation body at %d is not canonical", off)
					}
					back, err2 := DecodeMutation(rec.LSN, EncodeMutation(mut))
					if err2 != nil || !reflect.DeepEqual(back, mut) {
						t.Fatalf("mutation at %d does not round-trip: %v", off, err2)
					}
				}
			}
			if rec.Kind == KindTxn {
				muts, err := DecodeTxn(rec.LSN, rec.Body)
				if err == nil {
					// accepted transactions round-trip exactly and carry
					// consecutive LSNs ending at the record's
					if !bytes.Equal(EncodeTxn(muts), rec.Body) {
						t.Fatalf("txn body at %d is not canonical", off)
					}
					if len(muts) == 0 || muts[len(muts)-1].LSN != rec.LSN {
						t.Fatalf("txn at %d: accepted with wrong LSN shape", off)
					}
					for i := 1; i < len(muts); i++ {
						if muts[i].LSN != muts[i-1].LSN+1 {
							t.Fatalf("txn at %d: accepted non-consecutive LSNs", off)
						}
					}
				}
			}
			off += n
		}
	})
}

// FuzzValueCodec attacks the shared value/row codec directly (checkpoints
// decode rows through the same path).
func FuzzValueCodec(f *testing.F) {
	f.Add(AppendRow(nil, value.Row{value.NewInt(-1), value.NewString("ab"), value.Null}))
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, n, err := ReadRow(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("ReadRow consumed %d of %d bytes", n, len(data))
		}
		if !bytes.Equal(AppendRow(nil, row), data[:n]) {
			t.Fatal("accepted row is not canonical")
		}
	})
}

// TestFloatValueBytes: a float's log bytes are its tag and its IEEE bits,
// little-endian — the bytes recorded when a Value kept its float in a
// field of its own, so a log or checkpoint written before the Value
// shrank to one payload reads back bit for bit, NaN payloads and the sign
// of zero included.
func TestFloatValueBytes(t *testing.T) {
	for _, c := range []struct {
		bits uint64
		enc  string
	}{
		{0x8000000000000000, "020000000000000080"},
		{0x0000000000000000, "020000000000000000"},
		{0x7ff8000000000001, "02010000000000f87f"},
		{0xfff4000000000abc, "02bc0a00000000f4ff"},
		{0x7ff0000000000000, "02000000000000f07f"},
		{0xfff0000000000000, "02000000000000f0ff"},
		{0x0000000000000001, "020100000000000000"},
		{0x4004000000000000, "020000000000000440"},
		{0xfe37e43c8800759c, "029c7500883ce437fe"},
	} {
		enc := AppendValue(nil, value.NewFloat(math.Float64frombits(c.bits)))
		if got := hex.EncodeToString(enc); got != c.enc {
			t.Errorf("AppendValue(%#x) = %s, want %s", c.bits, got, c.enc)
		}
		v, n, err := ReadValue(enc)
		if err != nil || n != len(enc) || v.K != value.KindFloat || math.Float64bits(v.Float()) != c.bits {
			t.Errorf("ReadValue(%s) = %#v, %d, %v; want float bits %#x", c.enc, v, n, err, c.bits)
		}
	}
}
