package recovery

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"htapxplain/internal/wal"
)

// failLog makes every later write to the open segment of the log in logDir fail, the way
// a volume remounted read-only does, without a hook in the WAL: it finds
// the descriptor this process holds on the segment file and puts a
// read-only descriptor in its place.
func failLog(t *testing.T, logDir string) {
	t.Helper()
	ro, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to find the log's descriptor in: %v", err)
	}
	for _, e := range fds {
		target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if !strings.HasPrefix(target, logDir) || !strings.HasSuffix(target, ".seg") {
			continue
		}
		fd, _ := strconv.Atoi(e.Name())
		if err := syscall.Dup3(int(ro.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("the log holds no open segment")
}

// TestBackgroundCheckpointSyncFailureIsReported: a periodic checkpoint
// that fails at its first step with an error — making the log durable up
// to the snapshot — is as visible in Err() as one that fails writing the
// file. (It used to be returned to a loop that dropped it.)
func TestBackgroundCheckpointSyncFailureIsReported(t *testing.T) {
	logDir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: logDir})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Append(wal.Record{LSN: 1, Kind: wal.KindMutation}); err != nil {
		t.Fatal(err)
	}
	if err := log.WaitDurable(1); err != nil {
		t.Fatal(err)
	}
	failLog(t, logDir)
	if err := log.Append(wal.Record{LSN: 2, Kind: wal.KindMutation}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(t.TempDir(), sourceFunc(func() *Checkpoint { return testCheckpoint(2) }), log)
	m.Start(time.Millisecond)
	defer m.Stop()
	if err := waitErr(t, m); !strings.Contains(err.Error(), "wal: fsync") {
		t.Fatalf("Err() = %v, want the log's sync failure", err)
	}
	if n := m.Stats().Checkpoints; n != 0 {
		t.Errorf("%d checkpoints written over a log that cannot be synced", n)
	}
}
