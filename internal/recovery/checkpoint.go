// Package recovery implements the durability subsystem's checkpoint and
// restart protocol. A checkpoint is a CRC-protected snapshot of the row
// store — every table's version heap (rows + tombstone metadata) plus the
// commit LSN it is consistent with. On startup the system restores the
// latest valid checkpoint and replays the WAL tail (LSNs beyond the
// checkpoint) to reach the last durable commit; the periodic Manager keeps
// checkpoints fresh so that replay stays short and retired WAL segments
// can be deleted. Its background loop is a task.Loop: a periodic
// checkpoint that fails at any step, or panics, leaves the previous
// checkpoint and the log in place, is reported by Manager.Err, and is
// attempted again on the next tick.
//
// Checkpoint files are written atomically: encode to a temp file, fsync,
// rename into place, fsync the directory. A crash mid-checkpoint therefore
// leaves the previous checkpoint intact, and LoadLatest falls back past
// any file that fails its CRC.
package recovery

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"htapxplain/internal/rowstore"
	"htapxplain/internal/value"
	"htapxplain/internal/wal"
)

// checkpoint file layout (all integers little-endian):
//
//	magic   "HTAPCKP1" (8 bytes)
//	u64     commit LSN
//	u32     table count
//	per table:
//	  u16   name length, name bytes
//	  u32   heap length (live + tombstoned versions)
//	  per version: u64 insert LSN, u64 delete LSN, row (wal row codec)
//	u32     CRC-32C of everything after the magic
const (
	ckptMagic  = "HTAPCKP1"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".snap"

	// KeepCheckpoints is how many recent checkpoints survive pruning: the
	// latest plus one fallback in case the latest is damaged. The log is
	// kept back to the oldest of them, so the fallback can be replayed from.
	KeepCheckpoints = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is one restorable snapshot of the row store.
type Checkpoint struct {
	// LSN is the commit LSN the snapshot is consistent with: it contains
	// exactly the effects of every mutation with LSN <= LSN.
	LSN uint64
	// Tables maps lower-cased table name → heap snapshot.
	Tables map[string]rowstore.HeapSnapshot
}

func ckptName(lsn uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, lsn, ckptSuffix)
}

// parseCkptName extracts the LSN from a checkpoint file name.
func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
	return lsn, err == nil
}

// crcWriter tees writes into a running CRC.
type crcWriter struct {
	w io.Writer
	h hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.h.Write(p[:n])
	return n, err
}

// Write persists the checkpoint into dir atomically and returns its path.
func Write(dir string, ck *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("recovery: creating %s: %w", dir, err)
	}
	final := filepath.Join(dir, ckptName(ck.LSN))
	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return "", fmt.Errorf("recovery: temp checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	bw := bufio.NewWriterSize(tmp, 1<<16)
	cw := &crcWriter{w: bw, h: crc32.New(castagnoli)}
	if _, err := bw.WriteString(ckptMagic); err != nil {
		tmp.Close()
		return "", fmt.Errorf("recovery: writing checkpoint: %w", err)
	}
	if err := encodeBody(cw, ck); err != nil {
		tmp.Close()
		return "", fmt.Errorf("recovery: writing checkpoint: %w", err)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.h.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		tmp.Close()
		return "", fmt.Errorf("recovery: writing checkpoint: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("recovery: flushing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("recovery: fsync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("recovery: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("recovery: publishing checkpoint: %w", err)
	}
	// a real directory-fsync failure must fail the checkpoint: the caller
	// retires WAL segments the moment Write succeeds, and an un-durable
	// rename plus a truncated log would lose committed data together
	if err := wal.SyncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

func encodeBody(w io.Writer, ck *Checkpoint) error {
	var scratch []byte
	scratch = binary.LittleEndian.AppendUint64(scratch, ck.LSN)
	scratch = binary.LittleEndian.AppendUint32(scratch, uint32(len(ck.Tables)))
	if _, err := w.Write(scratch); err != nil {
		return err
	}
	// deterministic table order makes identical states produce identical
	// checkpoint bytes
	names := make([]string, 0, len(ck.Tables))
	for n := range ck.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		snap := ck.Tables[name]
		if len(snap.Rows) != len(snap.Versions) {
			return fmt.Errorf("table %q has %d rows but %d versions", name, len(snap.Rows), len(snap.Versions))
		}
		scratch = scratch[:0]
		scratch = binary.LittleEndian.AppendUint16(scratch, uint16(len(name)))
		scratch = append(scratch, name...)
		scratch = binary.LittleEndian.AppendUint32(scratch, uint32(len(snap.Rows)))
		if _, err := w.Write(scratch); err != nil {
			return err
		}
		for i, row := range snap.Rows {
			scratch = scratch[:0]
			scratch = binary.LittleEndian.AppendUint64(scratch, snap.Versions[i].InsertLSN)
			scratch = binary.LittleEndian.AppendUint64(scratch, snap.Versions[i].DeleteLSN)
			scratch = wal.AppendRow(scratch, row)
			if _, err := w.Write(scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads and verifies one checkpoint file.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("recovery: reading %s: %w", path, err)
	}
	if len(data) < len(ckptMagic)+12+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("recovery: %s is not a checkpoint", path)
	}
	body := data[len(ckptMagic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, fmt.Errorf("recovery: %s fails its CRC", path)
	}
	ck := &Checkpoint{Tables: make(map[string]rowstore.HeapSnapshot)}
	ck.LSN = binary.LittleEndian.Uint64(body[0:8])
	nTables := int(binary.LittleEndian.Uint32(body[8:12]))
	off := 12
	for ti := 0; ti < nTables; ti++ {
		if len(body)-off < 2 {
			return nil, fmt.Errorf("recovery: %s: truncated table header", path)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if nameLen > len(body)-off {
			return nil, fmt.Errorf("recovery: %s: table name overruns file", path)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		if len(body)-off < 4 {
			return nil, fmt.Errorf("recovery: %s: truncated heap length", path)
		}
		nRows := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		// 16 bytes of LSNs + 2 bytes of column count is the per-row floor
		if nRows > (len(body)-off)/18 {
			return nil, fmt.Errorf("recovery: %s: table %q heap length %d overruns file", path, name, nRows)
		}
		snap := rowstore.HeapSnapshot{
			Rows:     make([]value.Row, nRows),
			Versions: make([]rowstore.VersionMeta, nRows),
		}
		for ri := 0; ri < nRows; ri++ {
			if len(body)-off < 16 {
				return nil, fmt.Errorf("recovery: %s: table %q row %d truncated", path, name, ri)
			}
			snap.Versions[ri].InsertLSN = binary.LittleEndian.Uint64(body[off:])
			snap.Versions[ri].DeleteLSN = binary.LittleEndian.Uint64(body[off+8:])
			off += 16
			row, n, err := wal.ReadRow(body[off:])
			if err != nil {
				return nil, fmt.Errorf("recovery: %s: table %q row %d: %w", path, name, ri, err)
			}
			snap.Rows[ri] = row
			off += n
		}
		ck.Tables[name] = snap
	}
	if off != len(body) {
		return nil, fmt.Errorf("recovery: %s: %d trailing bytes", path, len(body)-off)
	}
	return ck, nil
}

// LoadLatest returns the newest checkpoint in dir that decodes and passes
// its CRC, skipping damaged files (a crash can only damage the file being
// written, which the atomic rename keeps out of the namespace — but belt
// and suspenders). It returns (nil, nil) when no usable checkpoint exists.
func LoadLatest(dir string) (*Checkpoint, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("recovery: reading %s: %w", dir, err)
	}
	type cand struct {
		lsn  uint64
		path string
	}
	var cands []cand
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseCkptName(e.Name()); ok {
			cands = append(cands, cand{lsn: lsn, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lsn > cands[j].lsn })
	for _, c := range cands {
		ck, err := Load(c.path)
		if err == nil {
			return ck, nil
		}
	}
	return nil, nil
}

// Prune deletes all but the keep newest checkpoint files and returns the
// LSN of the oldest one it kept (0 when the directory holds none) — the
// floor below which the log is no longer needed, since LoadLatest may have
// to fall back that far.
func Prune(dir string, keep int) (oldestKept uint64, err error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("recovery: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range ents {
		if _, ok := parseCkptName(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded LSNs: lexicographic == numeric
	for i := 0; i < len(names)-keep; i++ {
		if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
			return 0, fmt.Errorf("recovery: pruning checkpoint: %w", err)
		}
	}
	if kept := names[max(len(names)-keep, 0):]; len(kept) > 0 {
		oldestKept, _ = parseCkptName(kept[0])
	}
	return oldestKept, nil
}
