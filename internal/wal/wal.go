// Package wal implements the durability subsystem's write-ahead log: a
// segmented, append-only log of CRC32-framed, length-prefixed records with
// group commit. Committers append a record and then wait for durability;
// the group committer (a task.Loop woken by the interval, a byte threshold
// or a waiting committer) batches every record appended since the last
// fsync into one fsync: one disk flush per *group* of commits, not per
// commit. A sync pass that fails — or panics — poisons the log with a
// sticky error that every waiting and later committer receives.
//
// The log is the system's source of truth across restarts: recovery
// restores the latest checkpoint and replays the WAL tail (Replay), and a
// torn record at the end of the last segment — the signature of a crash
// mid-write — is detected by CRC and truncated away, so the log always
// reopens to the longest intact prefix. Segments are named by the LSN of
// their first record; TruncateBefore retires segments wholly covered by a
// checkpoint.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"htapxplain/internal/task"
)

// Default tuning; all overridable through Options.
const (
	// DefaultSegmentBytes is the rotation threshold per segment file.
	DefaultSegmentBytes = 4 << 20
	// DefaultSyncInterval is the group-commit window: the longest a
	// buffered append waits for an fsync when no committer is waiting.
	DefaultSyncInterval = 2 * time.Millisecond
	// DefaultSyncBytes is the buffered-byte threshold that forces an early
	// fsync between ticks.
	DefaultSyncBytes = 256 << 10

	segSuffix = ".seg"
)

// Options configures Open.
type Options struct {
	// Dir is the segment directory (created if absent).
	Dir string
	// SegmentBytes rotates to a fresh segment once the current one exceeds
	// this size (default DefaultSegmentBytes).
	SegmentBytes int64
	// SyncInterval is the group-commit flush interval (default
	// DefaultSyncInterval).
	SyncInterval time.Duration
	// SyncBytes forces a flush when this many bytes are buffered (default
	// DefaultSyncBytes).
	SyncBytes int
	// SimulatedSyncLatency adds an artificial delay to every fsync —
	// a benchmarking knob that models slower durable media (cloud block
	// storage, spinning disks) on hosts whose fsync is nearly free, which
	// is what makes group-commit amortization visible. Zero (the default,
	// and the only sane production setting) adds nothing.
	SimulatedSyncLatency time.Duration
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = DefaultSyncBytes
	}
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appends        int64  `json:"wal_appends"`
	AppendedBytes  int64  `json:"wal_appended_bytes"`
	Syncs          int64  `json:"wal_syncs"`
	MaxGroupCommit int64  `json:"wal_max_group_commit"` // most records made durable by one fsync
	Rotations      int64  `json:"wal_rotations"`
	Segments       int    `json:"wal_segments"`
	AppendedLSN    uint64 `json:"wal_appended_lsn"`
	DurableLSN     uint64 `json:"wal_durable_lsn"`
}

// OpenInfo reports what Open found on disk.
type OpenInfo struct {
	// LastLSN is the LSN of the last intact record (0 for an empty log).
	LastLSN uint64
	// LastKind is the kind of that record (0 for an empty log).
	LastKind Kind
	// Records is the number of intact records across all segments.
	Records int
	// TruncatedBytes is how many torn/corrupt trailing bytes were cut from
	// the final segment.
	TruncatedBytes int64
	// Segments is the number of segment files.
	Segments int
}

// SyncDir fsyncs a directory so that file creations and renames inside it
// are durable — without it, an acknowledged commit can vanish with power
// loss because the segment's directory entry never reached disk. A real
// fsync failure is reported; EINVAL (filesystems that do not support
// directory fsync) is tolerated.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("wal: fsync dir %s: %w", dir, err)
	}
	return nil
}

// segment is one on-disk log file.
type segment struct {
	firstLSN uint64
	path     string
}

func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%020d%s", firstLSN, segSuffix)
}

// WAL is an open write-ahead log. Append/WaitDurable/Replay are safe for
// concurrent use.
type WAL struct {
	opts Options
	info OpenInfo

	mu       sync.Mutex // guards file, buffer, segments, append state
	f        *os.File
	bw       *bufio.Writer
	segments []segment  // sorted by firstLSN; last is the active one
	retired  []*os.File // rotated-out files awaiting close by the sync loop
	segSize  int64      // bytes in the active segment
	appended uint64     // LSN of the last appended record
	pending  int        // bytes buffered since the last sync
	pendRecs int64      // records buffered since the last sync
	scratch  []byte     // frame encoding buffer
	closed   bool

	// syncRunMu serializes whole sync passes. The fsync itself runs with
	// only this lock held — NOT mu — so committers keep appending while
	// the disk flushes; everything they append rides the next fsync.
	// That overlap is what turns N concurrent commits into O(1) fsyncs.
	syncRunMu sync.Mutex

	syncMu     sync.Mutex
	syncCond   *sync.Cond
	durable    uint64 // LSN through which the log is fsynced
	syncErr    error  // sticky: a failed fsync poisons the log
	syncClosed bool   // Close ran: waiters must not park again

	closeOnce sync.Once
	closeErr  error

	notify chan struct{}
	syncer task.Loop // the group committer: a pass is one syncOnce

	appends   atomic.Int64
	bytes     atomic.Int64
	syncs     atomic.Int64
	maxGroup  atomic.Int64
	rotations atomic.Int64
}

// Open scans the segment directory, validates every record, truncates a
// torn tail off the final segment, and returns a log positioned for
// appends. A corrupt record anywhere but the final segment's tail is a
// hard error — that is damage, not a crash signature.
func Open(opts Options) (*WAL, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	w := &WAL{opts: opts, notify: make(chan struct{}, 1)}
	w.syncCond = sync.NewCond(&w.syncMu)

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		scan, err := scanSegment(seg.path)
		if err != nil {
			return nil, err
		}
		if scan.torn && !last {
			return nil, fmt.Errorf("wal: segment %s is corrupt at offset %d (not the final segment; refusing to recover)",
				filepath.Base(seg.path), scan.validLen)
		}
		if scan.torn {
			if err := os.Truncate(seg.path, scan.validLen); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
			}
			w.info.TruncatedBytes = scan.fileLen - scan.validLen
		}
		if scan.records > 0 {
			w.info.LastLSN = scan.lastLSN
			w.info.LastKind = scan.lastKind
		}
		w.info.Records += scan.records
		if last {
			w.segSize = scan.validLen
		}
	}
	w.segments = segs
	w.info.Segments = len(segs)
	w.appended = w.info.LastLSN
	w.durable = w.info.LastLSN

	if len(segs) > 0 {
		f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening active segment: %w", err)
		}
		w.f = f
		w.bw = bufio.NewWriter(f)
	}
	w.syncer.Start(opts.SyncInterval, w.notify, w.syncOnce)
	return w, nil
}

// Info reports what Open found on disk.
func (w *WAL) Info() OpenInfo { return w.info }

// listSegments returns the directory's segments sorted by first LSN.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unrecognized segment name %q", name)
		}
		segs = append(segs, segment{firstLSN: lsn, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// segScan is the result of validating one segment file.
type segScan struct {
	records  int
	lastLSN  uint64
	lastKind Kind
	validLen int64 // offset just past the last intact record
	fileLen  int64
	torn     bool // trailing bytes past validLen are damaged
}

// scanSegment walks a segment validating every frame.
func scanSegment(path string) (segScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return segScan{}, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	scan := segScan{fileLen: st.Size()}
	br := bufio.NewReader(f)
	for {
		rec, n, err := readFrame(br)
		if err != nil {
			scan.torn = err == errTorn
			return scan, nil
		}
		scan.records++
		scan.lastLSN = rec.LSN
		scan.lastKind = rec.Kind
		scan.validLen += int64(n)
	}
}

// Append frames and buffers one record. The record is NOT durable when
// Append returns — call WaitDurable(rec.LSN) to block until the group
// committer has fsynced past it. LSNs must be appended in non-decreasing
// order (the caller's commit lock provides that).
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	if rec.LSN < w.appended {
		return fmt.Errorf("wal: append LSN %d below last appended %d", rec.LSN, w.appended)
	}
	if w.f == nil || (w.segSize >= w.opts.SegmentBytes && w.segSize > 0) {
		if err := w.rotateLocked(rec.LSN); err != nil {
			return err
		}
	}
	w.scratch = appendFrame(w.scratch[:0], rec)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	n := len(w.scratch)
	w.segSize += int64(n)
	w.pending += n
	w.pendRecs++
	w.appended = rec.LSN
	w.appends.Add(1)
	w.bytes.Add(int64(n))
	if w.pending >= w.opts.SyncBytes {
		w.poke()
	}
	return nil
}

// rotateLocked seals the active segment (flush + fsync) and starts a fresh
// one whose name records firstLSN. The sealed file is handed to the sync
// loop for closing — an fsync on it may still be in flight. Caller holds
// w.mu.
func (w *WAL) rotateLocked(firstLSN uint64) error {
	if w.f != nil {
		if err := w.bw.Flush(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		w.retired = append(w.retired, w.f)
		w.rotations.Add(1)
	}
	path := filepath.Join(w.opts.Dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	// make the new segment's directory entry durable before any record in
	// it can be acknowledged
	if err := SyncDir(w.opts.Dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriter(f)
	} else {
		w.bw.Reset(f)
	}
	w.segSize = 0
	w.segments = append(w.segments, segment{firstLSN: firstLSN, path: path})
	return nil
}

// poke wakes the sync loop without blocking.
func (w *WAL) poke() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// WaitDurable blocks until every record with LSN <= lsn is fsynced. It
// pokes the group committer, so the wait is bounded by one fsync (plus
// however many committers share it), not by the sync interval.
func (w *WAL) WaitDurable(lsn uint64) error {
	w.syncMu.Lock()
	if w.durable >= lsn && w.syncErr == nil {
		w.syncMu.Unlock()
		return nil
	}
	w.syncMu.Unlock()
	w.poke()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for w.durable < lsn && w.syncErr == nil && !w.syncClosed {
		w.syncCond.Wait()
	}
	if w.syncErr != nil {
		return w.syncErr
	}
	if w.durable < lsn {
		return fmt.Errorf("wal: closed before LSN %d became durable", lsn)
	}
	return nil
}

// DurableLSN returns the LSN through which the log is fsynced.
func (w *WAL) DurableLSN() uint64 {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.durable
}

// LastLSN returns the LSN of the last appended record.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// syncOnce is one pass of the group committer — the sync loop runs one per
// wakeup, Sync one on its caller's goroutine. One fsync covers every record
// appended since the previous pass, and it runs with the append lock
// released: committers keep appending and queue up on the next pass, which
// is what turns N concurrent commits into O(1) fsyncs. The outcome is then
// published to the waiters — a new durable LSN, or the sticky error. A pass
// that panics is a pass that failed, so a dead committer fails WaitDurable
// instead of hanging it.
func (w *WAL) syncOnce() error {
	w.syncRunMu.Lock()
	defer w.syncRunMu.Unlock()
	var (
		target uint64
		recs   int64
	)
	err := task.Do(func() (err error) {
		var f *os.File
		if f, target, recs, err = w.flushBuffered(); err != nil || recs == 0 {
			return err
		}
		if w.opts.SimulatedSyncLatency > 0 {
			time.Sleep(w.opts.SimulatedSyncLatency)
		}
		return f.Sync()
	})
	if err == nil && recs == 0 {
		return nil
	}
	if err == nil {
		// counted before the waiters wake, so a committer that reads the
		// stats right after WaitDurable sees its own fsync in them
		w.syncs.Add(1)
		for {
			cur := w.maxGroup.Load()
			if recs <= cur || w.maxGroup.CompareAndSwap(cur, recs) {
				break
			}
		}
	}
	w.syncMu.Lock()
	if err != nil {
		if w.syncErr == nil {
			w.syncErr = fmt.Errorf("wal: fsync: %w", err)
		}
		err = w.syncErr
	} else if target > w.durable {
		w.durable = target
	}
	w.syncMu.Unlock()
	w.syncCond.Broadcast()
	return err
}

// flushBuffered hands everything appended so far to the OS (under the
// append lock — cheap) and returns the file to fsync, the LSN that fsync
// will cover and how many records it makes durable (0: nothing to do).
func (w *WAL) flushBuffered() (f *os.File, target uint64, recs int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// close the segments rotated out since the last pass: rotateLocked
	// fsynced their bytes, and no other fsync can be in flight on them
	// (sync passes serialize on syncRunMu)
	for _, rf := range w.retired {
		rf.Close()
	}
	w.retired = nil
	if w.f == nil || w.closed || w.pendRecs == 0 {
		return nil, 0, 0, nil
	}
	target, recs = w.appended, w.pendRecs
	w.pending, w.pendRecs = 0, 0
	return w.f, target, recs, w.bw.Flush()
}

// Sync flushes and fsyncs synchronously (used by Close and checkpoints).
func (w *WAL) Sync() error {
	_ = w.syncOnce() // a failure is sticky in syncErr
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncErr
}

// Replay streams every intact record with LSN >= from, in log order, to
// fn. A non-nil error from fn aborts the replay. Replay flushes buffered
// appends first so the files reflect the full log; it is intended for
// recovery, before concurrent appends begin.
func (w *WAL) Replay(from uint64, fn func(Record) error) error {
	w.mu.Lock()
	if w.bw != nil {
		if err := w.bw.Flush(); err != nil {
			w.mu.Unlock()
			return fmt.Errorf("wal: flushing before replay: %w", err)
		}
	}
	segs := append([]segment(nil), w.segments...)
	w.mu.Unlock()

	for _, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		br := bufio.NewReader(f)
		for {
			rec, _, err := readFrame(br)
			if err != nil {
				break // Open already validated; EOF or the truncated tail
			}
			if rec.LSN < from {
				continue
			}
			if err := fn(rec); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// TruncateBefore removes segments whose records all have LSN <= lsn — a
// segment is deletable once its *successor's* first LSN is <= lsn+1, i.e.
// every record a recovery starting at lsn+1 could need lives in a later
// segment. The active segment is never removed. Called after a checkpoint
// at lsn retires the log prefix it covers.
func (w *WAL) TruncateBefore(lsn uint64) (removed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.segments) > 1 && w.segments[1].firstLSN <= lsn+1 {
		if rmErr := os.Remove(w.segments[0].path); rmErr != nil {
			return removed, fmt.Errorf("wal: removing retired segment: %w", rmErr)
		}
		w.segments = w.segments[1:]
		removed++
	}
	return removed, nil
}

// Stats returns a snapshot of the log's counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	segs := len(w.segments)
	appended := w.appended
	w.mu.Unlock()
	return Stats{
		Appends:        w.appends.Load(),
		AppendedBytes:  w.bytes.Load(),
		Syncs:          w.syncs.Load(),
		MaxGroupCommit: w.maxGroup.Load(),
		Rotations:      w.rotations.Load(),
		Segments:       segs,
		AppendedLSN:    appended,
		DurableLSN:     w.DurableLSN(),
	}
}

// Close stops the group committer, flushes and fsyncs the tail, and closes
// the active segment. Idempotent and safe for concurrent callers.
func (w *WAL) Close() error {
	w.closeOnce.Do(func() {
		w.syncer.Stop()
		err := w.Sync()

		w.mu.Lock()
		w.closed = true
		for _, rf := range w.retired {
			rf.Close()
		}
		w.retired = nil
		if w.f != nil {
			if cerr := w.f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("wal: close: %w", cerr)
			}
			w.f = nil
		}
		w.mu.Unlock()

		// release any waiter that raced Close; WaitDurable reports an
		// error for LSNs the final sync did not cover
		w.syncMu.Lock()
		w.syncClosed = true
		w.syncMu.Unlock()
		w.syncCond.Broadcast()
		w.closeErr = err
	})
	return w.closeErr
}
