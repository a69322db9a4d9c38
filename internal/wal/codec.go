package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"htapxplain/internal/repl"
	"htapxplain/internal/value"
)

// On-disk record frame:
//
//	offset 0  u32 little-endian  payload length (>= recordHeaderLen)
//	offset 4  u32 little-endian  CRC-32C (Castagnoli) of the payload
//	offset 8  payload            [kind u8][lsn u64 LE][body]
//
// The length prefix lets the reader skip to the next frame without
// understanding the payload; the CRC makes a torn or bit-flipped record
// detectable, so recovery can stop at the last intact prefix of the log.

const (
	// frameHeaderLen is the length+CRC prefix before the payload.
	frameHeaderLen = 8
	// recordHeaderLen is the kind+LSN prefix inside the payload.
	recordHeaderLen = 9
	// maxRecordLen bounds a single payload; anything larger is treated as
	// corruption rather than allocated (a garbage length prefix must not
	// drive a multi-gigabyte allocation).
	maxRecordLen = 16 << 20
)

// castagnoli is the CRC-32C table (the polynomial used by iSCSI, ext4 and
// most storage formats — hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind tags the record types the log carries.
type Kind uint8

const (
	// KindMutation is one committed DML statement (a repl.Mutation body).
	KindMutation Kind = 1
	// KindCheckpoint marks that a checkpoint at the record's LSN has been
	// durably written; it carries no body.
	KindCheckpoint Kind = 2
	// KindShutdown is the clean-shutdown marker appended by a graceful
	// Close, stamped with the final commit LSN; it carries no body.
	KindShutdown Kind = 3
	// KindTxn is one committed multi-table transaction: a list of
	// per-table mutation bodies with consecutive LSNs, framed as a single
	// record so the commit is atomic in the log — a torn or corrupt record
	// drops the whole transaction, never a prefix of it. The record's LSN
	// is the transaction's last (highest) mutation LSN, which keeps
	// Append's non-decreasing-LSN invariant. Single-table commits keep
	// using KindMutation.
	KindTxn Kind = 4
)

func (k Kind) valid() bool { return k >= KindMutation && k <= KindTxn }

func (k Kind) String() string {
	switch k {
	case KindMutation:
		return "mutation"
	case KindCheckpoint:
		return "checkpoint"
	case KindShutdown:
		return "shutdown"
	case KindTxn:
		return "txn"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one logical log record.
type Record struct {
	LSN  uint64
	Kind Kind
	// Body is the kind-specific payload (a mutation encoding for
	// KindMutation, empty for markers).
	Body []byte
}

// appendFrame appends the framed encoding of rec to dst.
func appendFrame(dst []byte, rec Record) []byte {
	payloadLen := recordHeaderLen + len(rec.Body)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder
	payloadAt := len(dst)
	dst = append(dst, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = append(dst, rec.Body...)
	crc := crc32.Checksum(dst[payloadAt:], castagnoli)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc)
	return dst
}

// errTorn is the internal sentinel for "the byte stream ends mid-record or
// fails its CRC here": everything before it is intact, everything at and
// after it is unusable. Recovery truncates at this point.
var errTorn = fmt.Errorf("wal: torn or corrupt record")

// readFrame reads one frame from r. It returns errTorn for a truncated,
// oversized or CRC-failing frame and io.EOF at a clean record boundary.
func readFrame(r *bufio.Reader) (Record, int, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Record{}, 0, io.EOF // clean end
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Record{}, 0, errTorn
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if payloadLen < recordHeaderLen || payloadLen > maxRecordLen {
		return Record{}, 0, errTorn
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, 0, errTorn
	}
	if crc32.Checksum(payload, castagnoli) != wantCRC {
		return Record{}, 0, errTorn
	}
	rec := Record{
		Kind: Kind(payload[0]),
		LSN:  binary.LittleEndian.Uint64(payload[1:9]),
		Body: payload[recordHeaderLen:],
	}
	if !rec.Kind.valid() {
		return Record{}, 0, errTorn
	}
	return rec, frameHeaderLen + int(payloadLen), nil
}

// ---------------------------------------------------------------- values

// Value wire format: one kind byte, then a fixed- or length-prefixed body.
// The encoding is canonical (one byte sequence per value), so decode∘encode
// is the identity — the property FuzzWALDecode checks.
const (
	tagNull   = 0
	tagInt    = 1
	tagFloat  = 2
	tagString = 3
	tagBool   = 4
)

// AppendValue appends the binary encoding of v to dst. The codec is shared
// by the WAL mutation records and the recovery checkpoints.
func AppendValue(dst []byte, v value.Value) []byte {
	switch v.K {
	case value.KindNull:
		return append(dst, tagNull)
	case value.KindInt:
		dst = append(dst, tagInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case value.KindFloat:
		dst = append(dst, tagFloat)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I)) // the IEEE bits
	case value.KindString:
		dst = append(dst, tagString)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.S)))
		return append(dst, v.S...)
	case value.KindBool:
		dst = append(dst, tagBool)
		if v.I != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		// unknown kinds are logged as NULL rather than silently panicking;
		// the value package has no other kinds today
		return append(dst, tagNull)
	}
}

// ReadValue decodes one value from b, returning it and the bytes consumed.
func ReadValue(b []byte) (value.Value, int, error) {
	if len(b) == 0 {
		return value.Value{}, 0, fmt.Errorf("wal: truncated value")
	}
	switch b[0] {
	case tagNull:
		return value.Null, 1, nil
	case tagInt:
		if len(b) < 9 {
			return value.Value{}, 0, fmt.Errorf("wal: truncated int value")
		}
		return value.NewInt(int64(binary.LittleEndian.Uint64(b[1:9]))), 9, nil
	case tagFloat:
		if len(b) < 9 {
			return value.Value{}, 0, fmt.Errorf("wal: truncated float value")
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))), 9, nil
	case tagString:
		if len(b) < 5 {
			return value.Value{}, 0, fmt.Errorf("wal: truncated string header")
		}
		n := int(binary.LittleEndian.Uint32(b[1:5]))
		if n > len(b)-5 {
			return value.Value{}, 0, fmt.Errorf("wal: string length %d exceeds record", n)
		}
		return value.NewString(string(b[5 : 5+n])), 5 + n, nil
	case tagBool:
		if len(b) < 2 {
			return value.Value{}, 0, fmt.Errorf("wal: truncated bool value")
		}
		if b[1] > 1 {
			return value.Value{}, 0, fmt.Errorf("wal: bool byte %d out of range", b[1])
		}
		return value.NewBool(b[1] == 1), 2, nil
	default:
		return value.Value{}, 0, fmt.Errorf("wal: unknown value tag %d", b[0])
	}
}

// AppendRow appends the encoding of a row: u16 column count, then values.
func AppendRow(dst []byte, r value.Row) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// ReadRow decodes one row from b, returning it and the bytes consumed.
func ReadRow(b []byte) (value.Row, int, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("wal: truncated row header")
	}
	ncols := int(binary.LittleEndian.Uint16(b[0:2]))
	// one byte per value is the floor; reject counts the record cannot hold
	if ncols > len(b)-2 {
		return nil, 0, fmt.Errorf("wal: row column count %d exceeds record", ncols)
	}
	off := 2
	row := make(value.Row, ncols)
	for i := range row {
		v, n, err := ReadValue(b[off:])
		if err != nil {
			return nil, 0, err
		}
		row[i] = v
		off += n
	}
	return row, off, nil
}

// ------------------------------------------------------------- mutations

// Mutation body wire format:
//
//	u16 table-name length, table name bytes
//	u32 delete count, then u64 RID each
//	u32 insert count, then per insert: u64 RID, row (u16 ncols + values)
//
// The LSN lives in the record header, not the body.

// EncodeMutation returns the canonical body encoding of m (without the
// record frame; the LSN is carried by the frame header).
func EncodeMutation(m *repl.Mutation) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Table)))
	dst = append(dst, m.Table...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Deletes)))
	for _, rid := range m.Deletes {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rid))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Inserts)))
	for _, ins := range m.Inserts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(ins.RID))
		dst = AppendRow(dst, ins.Row)
	}
	return dst
}

// DecodeMutation decodes a mutation body produced by EncodeMutation. The
// decode is strict: trailing bytes are rejected, so every accepted body is
// the canonical encoding of the mutation it returns. lsn stamps the result.
func DecodeMutation(lsn uint64, b []byte) (*repl.Mutation, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("wal: truncated mutation header")
	}
	nameLen := int(binary.LittleEndian.Uint16(b[0:2]))
	off := 2
	if nameLen > len(b)-off {
		return nil, fmt.Errorf("wal: table name length %d exceeds record", nameLen)
	}
	m := &repl.Mutation{LSN: lsn, Table: string(b[off : off+nameLen])}
	off += nameLen

	if len(b)-off < 4 {
		return nil, fmt.Errorf("wal: truncated delete count")
	}
	nDel := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if nDel > (len(b)-off)/8 {
		return nil, fmt.Errorf("wal: delete count %d exceeds record", nDel)
	}
	if nDel > 0 {
		m.Deletes = make([]int64, nDel)
		for i := range m.Deletes {
			m.Deletes[i] = int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
	}

	if len(b)-off < 4 {
		return nil, fmt.Errorf("wal: truncated insert count")
	}
	nIns := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	// u64 RID + u16 column count is the per-insert floor
	if nIns > (len(b)-off)/10 {
		return nil, fmt.Errorf("wal: insert count %d exceeds record", nIns)
	}
	if nIns > 0 {
		m.Inserts = make([]repl.RowVersion, nIns)
		for i := range m.Inserts {
			if len(b)-off < 8 {
				return nil, fmt.Errorf("wal: truncated insert RID")
			}
			m.Inserts[i].RID = int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			row, n, err := ReadRow(b[off:])
			if err != nil {
				return nil, err
			}
			m.Inserts[i].Row = row
			off += n
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("wal: %d trailing bytes after mutation", len(b)-off)
	}
	return m, nil
}

// ----------------------------------------------------------- transactions

// Txn body wire format:
//
//	u32 mutation count (>= 1)
//	per mutation: u64 LSN, u32 body length, mutation body (EncodeMutation)
//
// Mutation LSNs must be consecutive and the record's LSN must equal the
// last mutation's, so one transaction occupies one contiguous LSN range
// and replay can apply its mutations exactly like standalone ones.

// EncodeTxn returns the canonical body encoding of a committed
// transaction's mutation list (one per touched table, in LSN order).
func EncodeTxn(muts []*repl.Mutation) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(muts)))
	for _, m := range muts {
		dst = binary.LittleEndian.AppendUint64(dst, m.LSN)
		body := EncodeMutation(m)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
		dst = append(dst, body...)
	}
	return dst
}

// DecodeTxn decodes a transaction body produced by EncodeTxn. Like
// DecodeMutation the decode is strict — trailing bytes, an empty
// mutation list, non-consecutive LSNs or a record LSN that is not the
// last mutation's are all rejected — so every accepted body is the
// canonical encoding of the transaction it returns. lsn is the record's
// LSN (the transaction's last).
func DecodeTxn(lsn uint64, b []byte) ([]*repl.Mutation, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wal: truncated transaction header")
	}
	n := int(binary.LittleEndian.Uint32(b))
	off := 4
	if n == 0 {
		return nil, fmt.Errorf("wal: empty transaction record")
	}
	// u64 LSN + u32 length + the 10-byte mutation-body floor per entry
	if n > (len(b)-off)/22 {
		return nil, fmt.Errorf("wal: transaction mutation count %d exceeds record", n)
	}
	muts := make([]*repl.Mutation, 0, n)
	var prev uint64
	for i := 0; i < n; i++ {
		if len(b)-off < 12 {
			return nil, fmt.Errorf("wal: truncated transaction mutation header")
		}
		mlsn := binary.LittleEndian.Uint64(b[off:])
		off += 8
		blen := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if blen > len(b)-off {
			return nil, fmt.Errorf("wal: transaction mutation length %d exceeds record", blen)
		}
		if i > 0 && mlsn != prev+1 {
			return nil, fmt.Errorf("wal: transaction LSNs not consecutive (%d after %d)", mlsn, prev)
		}
		m, err := DecodeMutation(mlsn, b[off:off+blen])
		if err != nil {
			return nil, err
		}
		off += blen
		muts = append(muts, m)
		prev = mlsn
	}
	if prev != lsn {
		return nil, fmt.Errorf("wal: transaction record LSN %d != last mutation LSN %d", lsn, prev)
	}
	if off != len(b) {
		return nil, fmt.Errorf("wal: %d trailing bytes after transaction", len(b)-off)
	}
	return muts, nil
}
