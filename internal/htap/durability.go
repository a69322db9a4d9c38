package htap

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"htapxplain/internal/colstore"
	"htapxplain/internal/recovery"
	"htapxplain/internal/repl"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/wal"
)

// DurabilityConfig controls the WAL + checkpoint subsystem. The zero value
// keeps the system volatile (the pre-durability behavior): no directory,
// no logging, restarts lose all writes.
type DurabilityConfig struct {
	// Dir is the data directory; empty disables durability. The layout is
	// Dir/wal/ for log segments and Dir/checkpoint/ for snapshots.
	Dir string
	// SyncInterval is the group-commit fsync window (default
	// wal.DefaultSyncInterval).
	SyncInterval time.Duration
	// SyncBytes forces an fsync once this many bytes are buffered (default
	// wal.DefaultSyncBytes).
	SyncBytes int
	// SegmentBytes is the WAL segment rotation threshold (default
	// wal.DefaultSegmentBytes).
	SegmentBytes int64
	// CheckpointInterval is the background checkpoint period (default
	// recovery.DefaultInterval).
	CheckpointInterval time.Duration
	// SimulatedSyncLatency adds a modeled device latency to every fsync —
	// benchmarks and the transaction-throughput gate use it to make
	// group-commit batching measurable on fast CI disks.
	SimulatedSyncLatency time.Duration
}

// Enabled reports whether a data directory was configured.
func (d DurabilityConfig) Enabled() bool { return d.Dir != "" }

func (d DurabilityConfig) walDir() string  { return filepath.Join(d.Dir, "wal") }
func (d DurabilityConfig) ckptDir() string { return filepath.Join(d.Dir, "checkpoint") }

// RecoveryInfo reports what startup found on disk.
type RecoveryInfo struct {
	// Recovered is true when state was restored from a checkpoint (as
	// opposed to a fresh bulk load).
	Recovered bool
	// CheckpointLSN is the commit LSN of the restored checkpoint.
	CheckpointLSN uint64
	// ReplayedMutations is the number of WAL records re-applied on top of
	// the checkpoint.
	ReplayedMutations int
	// RecoveredLSN is the commit LSN after replay — the system's first
	// serving LSN.
	RecoveredLSN uint64
	// CleanShutdown is true when the log ends with a shutdown marker at
	// the recovered LSN (the previous process exited gracefully).
	CleanShutdown bool
	// TornBytesDropped is how many torn trailing WAL bytes were truncated
	// (nonzero exactly when the previous process died mid-append).
	TornBytesDropped int64
}

func (r RecoveryInfo) String() string {
	if !r.Recovered {
		return "fresh boot (no checkpoint on disk)"
	}
	mode := "crash recovery"
	if r.CleanShutdown {
		mode = "clean restart"
	}
	return fmt.Sprintf("%s: checkpoint LSN %d + %d WAL records -> LSN %d (%d torn bytes dropped)",
		mode, r.CheckpointLSN, r.ReplayedMutations, r.RecoveredLSN, r.TornBytesDropped)
}

// DurabilityStats is the durability gauge set the gateway exports.
type DurabilityStats struct {
	Enabled bool
	WAL     wal.Stats
	Ckpt    recovery.Stats
}

// DurabilityStats snapshots the WAL and checkpoint counters (zero when the
// system is volatile).
func (s *System) DurabilityStats() DurabilityStats {
	if s.wal == nil {
		return DurabilityStats{}
	}
	out := DurabilityStats{Enabled: true, WAL: s.wal.Stats()}
	if s.ckpt != nil {
		out.Ckpt = s.ckpt.Stats()
	}
	return out
}

// Recovery reports what this system's startup found on disk.
func (s *System) Recovery() RecoveryInfo { return s.recovery }

// CheckpointSnapshot implements recovery.Source: it copies every table's
// version heap under the single-writer lock, so the snapshot contains
// exactly the effects of LSNs <= the returned checkpoint's LSN — the
// consistency contract WAL-tail replay depends on.
func (s *System) CheckpointSnapshot() *recovery.Checkpoint {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	ck := &recovery.Checkpoint{
		LSN:    s.Row.CommitLSN(),
		Tables: make(map[string]rowstore.HeapSnapshot),
	}
	for _, meta := range s.Cat.Tables() {
		t, ok := s.Row.Table(meta.Name)
		if !ok {
			continue
		}
		ck.Tables[strings.ToLower(meta.Name)] = t.SnapshotHeap()
	}
	return ck
}

// Checkpoint forces a checkpoint now and returns its LSN (an error when
// the system is volatile).
func (s *System) Checkpoint() (uint64, error) {
	if s.ckpt == nil {
		return 0, fmt.Errorf("htap: durability is not enabled")
	}
	return s.ckpt.CheckpointNow()
}

// openDurable is boot's first durable step: open the log (cutting a torn
// tail off it) and choose the image to boot from — the newest checkpoint
// that decodes, else (a first boot, or every checkpoint destroyed) the
// deterministic bulk image, which is then what the log replays onto.
func openDurable(dcfg DurabilityConfig, bulk *recovery.Checkpoint) (*wal.WAL, *recovery.Checkpoint, RecoveryInfo, error) {
	w, err := wal.Open(wal.Options{
		Dir:                  dcfg.walDir(),
		SegmentBytes:         dcfg.SegmentBytes,
		SyncInterval:         dcfg.SyncInterval,
		SyncBytes:            dcfg.SyncBytes,
		SimulatedSyncLatency: dcfg.SimulatedSyncLatency,
	})
	if err != nil {
		return nil, nil, RecoveryInfo{}, err
	}
	ck, err := recovery.LoadLatest(dcfg.ckptDir())
	if err != nil {
		w.Close()
		return nil, nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{TornBytesDropped: w.Info().TruncatedBytes}
	if ck == nil {
		return w, bulk, info, nil
	}
	info.Recovered, info.CheckpointLSN = true, ck.LSN
	return w, ck, info, nil
}

// replayTail is boot's last durable step and the system's one replay loop:
// every logged commit beyond the image the stores were built from goes
// through the row store (which refuses a log that does not resume at the
// very next LSN, or whose RIDs are not the next heap slots) and then the
// column store's delta layer, advancing the replication watermark to the
// recovered commit LSN.
func replayTail(w *wal.WAL, row *rowstore.Store, col *colstore.Store, info *RecoveryInfo) error {
	err := w.Replay(info.CheckpointLSN+1, func(rec wal.Record) error {
		var muts []*repl.Mutation
		switch rec.Kind {
		case wal.KindMutation:
			mut, err := wal.DecodeMutation(rec.LSN, rec.Body)
			if err != nil {
				return fmt.Errorf("htap: decoding WAL record %d: %w", rec.LSN, err)
			}
			muts = []*repl.Mutation{mut}
		case wal.KindTxn:
			// a transaction record holds every mutation of one commit; it is
			// CRC-framed as a unit, so replay sees all of it or none of it —
			// a torn tail can never resurrect half a transaction
			var err error
			muts, err = wal.DecodeTxn(rec.LSN, rec.Body)
			if err != nil {
				return fmt.Errorf("htap: decoding WAL txn record %d: %w", rec.LSN, err)
			}
		default:
			return nil
		}
		for _, mut := range muts {
			if err := row.Replay(mut); err != nil {
				return err
			}
			if err := col.Apply(mut); err != nil {
				return fmt.Errorf("htap: replaying LSN %d into column store: %w", mut.LSN, err)
			}
			info.ReplayedMutations++
		}
		return nil
	})
	if err != nil {
		return err
	}
	info.RecoveredLSN = row.CommitLSN()
	info.CleanShutdown = info.TornBytesDropped == 0 &&
		w.Info().LastKind == wal.KindShutdown &&
		w.Info().LastLSN == info.RecoveredLSN
	return nil
}
