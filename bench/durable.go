package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"htapxplain/internal/htap"
	"htapxplain/internal/value"
)

// syntheticKeyBase is below every customer key the write generators use
// and above every bulk-loaded one.
const syntheticKeyBase = 1_000_000_000

// shards lists the system's shards; a single system is one shard.
func (s *system) shards() []*htap.System {
	if s.coord == nil {
		return []*htap.System{s.sys}
	}
	out := make([]*htap.System, s.coord.NumShards())
	for i := range out {
		out[i] = s.coord.Shard(i)
	}
	return out
}

func (s *system) waitFresh() error {
	if s.coord != nil {
		return s.coord.WaitFresh(5 * time.Second)
	}
	return s.sys.WaitFresh(5 * time.Second)
}

// customerState is what both engines hold in the customer table.
type customerState struct {
	count     int64   // COUNT(*) as the row store sees it
	synthetic []int64 // sorted keys at or above syntheticKeyBase
}

// readCustomers reads the customer table through both engines of every
// shard and fails if the engines disagree.
func readCustomers(shards []*htap.System) (customerState, error) {
	var st customerState
	for i, sys := range shards {
		res, err := sys.Run("SELECT COUNT(*) FROM customer")
		if err != nil {
			return st, err
		}
		tp, ap := res.TPRows[0][0].I, res.APRows[0][0].I
		if tp != ap {
			return st, fmt.Errorf("shard %d: COUNT(*) FROM customer is %d on TP and %d on AP", i, tp, ap)
		}
		st.count += tp
		res, err = sys.Run(fmt.Sprintf("SELECT c_custkey FROM customer WHERE c_custkey >= %d", syntheticKeyBase))
		if err != nil {
			return st, err
		}
		tpKeys, apKeys := keyColumn(res.TPRows), keyColumn(res.APRows)
		if !equalKeys(tpKeys, apKeys) {
			return st, fmt.Errorf("shard %d: TP holds %d written customers and AP %d, or different ones", i, len(tpKeys), len(apKeys))
		}
		st.synthetic = append(st.synthetic, tpKeys...)
	}
	sort.Slice(st.synthetic, func(i, j int) bool { return st.synthetic[i] < st.synthetic[j] })
	return st, nil
}

func keyColumn(rows []value.Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalKeys(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// quiesceCheck runs after the last acknowledgement of a durable workload.
// Once replication has caught up, the customer table must hold, on both
// engines, the bulk rows plus every acknowledged insert that no
// acknowledged delete removed. Then the data directory is copied while
// the system is still open — the image a kill -9 would leave — and
// reopened: every acknowledged commit must be there. The copy still sees
// the operating system's cache, so this proves write ordering and
// recovery, not that the device flushed.
func quiesceCheck(s *system, bulkCount int64, res *loadResult, tmpRoot string) (reopenS float64, err error) {
	if err := s.waitFresh(); err != nil {
		return 0, err
	}
	live, err := readCustomers(s.shards())
	if err != nil {
		return 0, err
	}
	if want := bulkCount + int64(len(live.synthetic)); live.count != want {
		return 0, fmt.Errorf("COUNT(*) FROM customer is %d, want %d bulk rows + %d written ones", live.count, bulkCount, len(live.synthetic))
	}
	present := make(map[int64]bool, len(live.synthetic))
	for i, k := range live.synthetic {
		if i > 0 && k == live.synthetic[i-1] {
			return 0, fmt.Errorf("customer %d is stored twice", k)
		}
		present[k] = true
	}
	acked := make(map[int64]bool, len(res.inserted))
	for _, k := range res.inserted {
		acked[k] = true
	}
	gone := make(map[int64]bool, len(res.deleted)+len(res.maybeDeleted))
	for _, k := range res.deleted {
		gone[k] = true
		if present[k] {
			return 0, fmt.Errorf("customer %d is still there after its DELETE was acknowledged", k)
		}
	}
	for _, k := range res.maybeDeleted {
		gone[k] = true
	}
	for k := range present {
		if !acked[k] {
			return 0, fmt.Errorf("customer %d is there but no acknowledged commit inserted it", k)
		}
	}
	for k := range acked {
		if !present[k] && !gone[k] {
			return 0, fmt.Errorf("customer %d was inserted by an acknowledged commit, never deleted, and is missing", k)
		}
	}

	// crash image
	liveLSN := make([]uint64, 0, len(s.shards()))
	for _, sys := range s.shards() {
		liveLSN = append(liveLSN, sys.CommitLSN())
	}
	image, err := os.MkdirTemp(tmpRoot, "crash-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(image)
	if err := copyCrashImage(s, image); err != nil {
		return 0, err
	}
	t0 := time.Now()
	recSys, recCoord, err := openSystem(s.def, image)
	if err != nil {
		return 0, fmt.Errorf("reopening the crash image: %w", err)
	}
	reopenS = time.Since(t0).Seconds()
	rec := &system{def: s.def, sys: recSys, coord: recCoord}
	defer rec.close()
	for i, sys := range rec.shards() {
		if got := sys.CommitLSN(); got != liveLSN[i] {
			return 0, fmt.Errorf("shard %d recovered to commit LSN %d, the live system is at %d", i, got, liveLSN[i])
		}
	}
	if s.coord == nil && recSys.CommitLSN() < res.maxLSN {
		return 0, fmt.Errorf("recovered commit LSN %d is below the acknowledged LSN %d", recSys.CommitLSN(), res.maxLSN)
	}
	recovered, err := readCustomers(rec.shards())
	if err != nil {
		return 0, fmt.Errorf("crash image: %w", err)
	}
	if recovered.count != live.count || !equalKeys(recovered.synthetic, live.synthetic) {
		return 0, fmt.Errorf("crash image holds %d customers (%d written), the live system %d (%d written)",
			recovered.count, len(recovered.synthetic), live.count, len(live.synthetic))
	}
	return reopenS, nil
}

// copyCrashImage copies the WAL and checkpoint files (not the explanation
// service's state) of every shard. A background checkpoint that finishes
// during the copy can retire segments the copy has not reached, which no
// crash could do; the copy is then taken again.
func copyCrashImage(s *system, dst string) error {
	checkpoints := func() (n int64) {
		for _, sys := range s.shards() {
			n += sys.DurabilityStats().Ckpt.Checkpoints
		}
		return n
	}
	for try := 0; try < 5; try++ {
		before := checkpoints()
		err := copyTree(s.dir, dst)
		if err == nil && checkpoints() == before {
			return nil
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
	}
	return errors.New("no stable copy of the data directory in 5 tries")
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "explain" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
