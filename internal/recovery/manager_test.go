package recovery

import (
	"errors"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/task"
)

// sourceFunc adapts a function to Source.
type sourceFunc func() *Checkpoint

func (f sourceFunc) CheckpointSnapshot() *Checkpoint { return f() }

// waitErr polls the manager's background error until it is set.
func waitErr(t *testing.T, m *Manager) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the background checkpointer's failure never reached Err()")
		}
		time.Sleep(time.Millisecond)
	}
	return m.Err()
}

// TestCheckpointerPanicCostsOnePass: a Source that panics while being
// snapshotted fails that periodic checkpoint and nothing else — the panic
// is in Err() with its stack and counted, the loop keeps ticking (the next
// snapshot succeeds and is written), Stop returns, and CheckpointNow still
// works afterwards.
func TestCheckpointerPanicCostsOnePass(t *testing.T) {
	dir := t.TempDir()
	before := task.Panics()
	calls := 0
	m := NewManager(dir, sourceFunc(func() *Checkpoint {
		if calls++; calls == 1 {
			panic("snapshot of a torn heap")
		}
		return testCheckpoint(uint64(calls))
	}), nil)
	m.Start(time.Millisecond)
	var pe *task.PanicError
	if err := waitErr(t, m); !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "CheckpointNow") {
		t.Fatalf("Err() = %v, want the *task.PanicError raised under CheckpointNow", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint was written after the pass that panicked")
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	if got := task.Panics() - before; got != 1 {
		t.Errorf("panics counted: %d, want 1", got)
	}
	lsn, err := m.CheckpointNow()
	if err != nil {
		t.Fatalf("CheckpointNow after the panic: %v", err)
	}
	if ck, err := LoadLatest(dir); err != nil || ck.LSN != lsn {
		t.Fatalf("LoadLatest = %+v, %v, want the checkpoint at LSN %d", ck, err, lsn)
	}
}
