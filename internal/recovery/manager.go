package recovery

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"htapxplain/internal/task"
	"htapxplain/internal/wal"
)

// DefaultInterval is the default period between background checkpoints.
const DefaultInterval = 30 * time.Second

// Source produces consistent checkpoints of the running system. The
// implementation (htap.System) must guarantee the snapshot contains
// exactly the effects of LSNs <= Checkpoint.LSN — it takes the
// single-writer lock while copying.
type Source interface {
	CheckpointSnapshot() *Checkpoint
}

// Stats is a snapshot of the manager's counters.
type Stats struct {
	Checkpoints    int64  `json:"checkpoint_count"`
	LastLSN        uint64 `json:"checkpoint_last_lsn"`
	LastDurationMS int64  `json:"checkpoint_last_ms"`
	SegmentsFreed  int64  `json:"checkpoint_wal_segments_freed"`
}

// Manager writes periodic checkpoints and retires the WAL prefix each one
// covers. It owns no storage state itself — it pulls snapshots from the
// Source and pushes retention into the WAL.
type Manager struct {
	dir string
	src Source
	log *wal.WAL // may be nil (checkpoint-only operation)

	mu   sync.Mutex // serializes checkpoints
	loop task.Loop  // the periodic checkpointer; its first failed pass is Err()

	checkpoints atomic.Int64
	lastLSN     atomic.Uint64
	lastMS      atomic.Int64
	freed       atomic.Int64
}

// NewManager builds a manager writing checkpoints into dir. log may be nil
// when there is no WAL to retire.
func NewManager(dir string, src Source, log *wal.WAL) *Manager {
	return &Manager{dir: dir, src: src, log: log}
}

// CheckpointNow takes a snapshot, persists it, prunes old checkpoints and
// retires the WAL segments no kept checkpoint needs: the log survives back
// to the oldest checkpoint Prune kept, not the one just written, so when
// the newest file turns out damaged LoadLatest's fallback still has its
// whole tail. Safe to call concurrently with the background loop
// (checkpoints serialize on the manager lock).
func (m *Manager) CheckpointNow() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	ck := m.src.CheckpointSnapshot()
	if ck == nil {
		return 0, fmt.Errorf("recovery: source returned no snapshot")
	}
	// make sure the WAL covers the snapshot before the old log prefix
	// becomes eligible for retirement
	if m.log != nil {
		if err := m.log.Sync(); err != nil {
			return 0, err
		}
	}
	if _, err := Write(m.dir, ck); err != nil {
		return 0, err
	}
	floor, err := Prune(m.dir, KeepCheckpoints)
	if err != nil {
		return 0, err
	}
	if m.log != nil {
		// the marker makes the checkpoint visible in the log stream, and
		// retirement drops segments recovery can no longer need
		_ = m.log.Append(wal.Record{LSN: ck.LSN, Kind: wal.KindCheckpoint})
		freed, err := m.log.TruncateBefore(floor)
		if err != nil {
			return 0, err
		}
		m.freed.Add(int64(freed))
	}
	m.checkpoints.Add(1)
	m.lastLSN.Store(ck.LSN)
	m.lastMS.Store(time.Since(start).Milliseconds())
	return ck.LSN, nil
}

// Prime records that a checkpoint at lsn already exists on disk, so a
// clean restart (whose Close wrote a final checkpoint at exactly this
// LSN) does not immediately rewrite an identical snapshot, and the
// background loop's "anything committed since?" test starts from the
// right place.
func (m *Manager) Prime(lsn uint64) { m.lastLSN.Store(lsn) }

// Err returns the first background checkpoint failure, if any: whatever
// step of a periodic checkpoint failed (or panicked) is recorded once,
// where the loop receives it. The loop keeps ticking afterwards.
func (m *Manager) Err() error { return m.loop.Err() }

// Start launches the periodic checkpoint loop (<=0 uses DefaultInterval).
func (m *Manager) Start(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	m.loop.Start(interval, nil, func() error {
		// skip no-op checkpoints: nothing committed since the last one
		if m.log != nil && m.log.LastLSN() <= m.lastLSN.Load() {
			return nil
		}
		_, err := m.CheckpointNow()
		return err
	})
}

// Stop halts the periodic loop and waits for an in-flight checkpoint to
// finish. CheckpointNow stays callable afterwards (Close uses it for the
// final clean-shutdown checkpoint).
func (m *Manager) Stop() { m.loop.Stop() }

// Stats returns the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Checkpoints:    m.checkpoints.Load(),
		LastLSN:        m.lastLSN.Load(),
		LastDurationMS: m.lastMS.Load(),
		SegmentsFreed:  m.freed.Load(),
	}
}
