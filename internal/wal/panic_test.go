package wal

import (
	"errors"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/task"
)

// TestGroupCommitterPanicFailsTheWaiters: a sync pass that panics — here
// the log's buffered writer is gone when the pass goes to flush it — is a
// failed pass. Every committer waiting on it gets the sticky sync error
// instead of hanging, later waiters and Sync get the same error, the
// committer loop reports it too, and Close returns.
func TestGroupCommitterPanicFailsTheWaiters(t *testing.T) {
	// no ticks: only a waiter's poke starts a pass
	w, err := Open(Options{Dir: t.TempDir(), SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 4; lsn++ {
		if err := w.Append(Record{LSN: lsn, Kind: KindMutation, Body: EncodeMutation(testMutation(lsn))}); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	w.bw = nil
	w.mu.Unlock()
	before := task.Panics()

	var waiters task.Group
	for lsn := uint64(1); lsn <= 4; lsn++ {
		lsn := lsn
		waiters.Go(func() error {
			var pe *task.PanicError
			if err := w.WaitDurable(lsn); !errors.As(err, &pe) {
				t.Errorf("WaitDurable(%d) = %v, want the sync pass's *task.PanicError", lsn, err)
			}
			return nil
		})
	}
	waited := make(chan struct{})
	var watch task.Group
	watch.Go(func() error {
		defer close(waited)
		return waiters.Wait()
	})
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("committers are still waiting on a group committer whose pass panicked")
	}
	var pe *task.PanicError
	if err := w.Sync(); !errors.As(err, &pe) {
		t.Errorf("Sync() after the panic = %v, want the sticky error", err)
	}
	if w.DurableLSN() != 0 {
		t.Errorf("durable LSN %d after a pass that never reached the disk", w.DurableLSN())
	}
	if err := w.Close(); err == nil {
		t.Error("Close reported a clean shutdown of a log that lost its tail")
	}
	// Close stopped the loop, so the pass that woke the waiters has
	// returned its failure to it
	if err := w.syncer.Err(); !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "flushBuffered") {
		t.Errorf("the committer loop's Err() = %v, want the panic raised in flushBuffered", err)
	}
	if got := task.Panics() - before; got != 1 {
		t.Errorf("panics counted: %d, want 1", got)
	}
}
