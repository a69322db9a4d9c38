package explainsvc

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"htapxplain/internal/expert"
	"htapxplain/internal/explain"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/wal"
	"htapxplain/internal/workload"
)

const (
	routerFile = "router.gob"
	kbFile     = "kb.gob"
)

// writeAtomic writes via a temp file and rename so a crash mid-write
// never corrupts the previous good state, and syncs the directory so the
// rename itself survives a power cut.
func writeAtomic(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return wal.SyncDir(filepath.Dir(path))
}

// saveState persists the router and knowledge base under dir.
func saveState(dir string, r *treecnn.Router, kb *knowledge.Base) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("explainsvc: state dir: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, routerFile), r.Save); err != nil {
		return fmt.Errorf("explainsvc: saving router: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, kbFile), kb.Save); err != nil {
		return fmt.Errorf("explainsvc: saving kb: %w", err)
	}
	return nil
}

// loadState restores a previously saved router and knowledge base. An
// error that is fs.ErrNotExist means a file is missing; any other names
// the file that exists but does not open or decode.
func loadState(dir string) (*treecnn.Router, *knowledge.Base, error) {
	rf, err := os.Open(filepath.Join(dir, routerFile))
	if err != nil {
		return nil, nil, err
	}
	defer rf.Close()
	r := treecnn.New(0)
	if err := r.Load(rf); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", rf.Name(), err)
	}
	kf, err := os.Open(filepath.Join(dir, kbFile))
	if err != nil {
		return nil, nil, err
	}
	defer kf.Close()
	kb, err := knowledge.Load(kf)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", kf.Name(), err)
	}
	return r, kb, nil
}

// BootstrapConfig drives Bootstrap. Zero values select the defaults.
type BootstrapConfig struct {
	// TrainQueries is how many generated queries are planned and labeled
	// to train the initial router (default 80).
	TrainQueries int
	// Epochs bounds initial training (default 40).
	Epochs int
	// KBSize is the curated knowledge base's target size (default 20,
	// the paper's configuration).
	KBSize int
	// Seed drives generation and training.
	Seed int64
	// Dir, when non-empty, is checked for previously persisted state
	// first; fresh state is saved there after building.
	Dir string
}

// Bootstrap produces the router and knowledge base a Service needs: it
// restores persisted state from cfg.Dir when present (restored == true),
// otherwise trains a router on a labeled workload batch and curates the
// KB from the judged batch, persisting both if a directory is given. Only
// a missing file means first boot: state that exists but cannot be read
// is an error, and nothing is written over it — it may hold a retrained
// router and every expert-corrected entry.
func Bootstrap(sys *htap.System, cfg BootstrapConfig) (r *treecnn.Router, kb *knowledge.Base, restored bool, err error) {
	if cfg.TrainQueries <= 0 {
		cfg.TrainQueries = 80
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 40
	}
	if cfg.KBSize <= 0 {
		cfg.KBSize = 20
	}
	if cfg.Dir != "" {
		r, kb, err := loadState(cfg.Dir)
		if err == nil {
			return r, kb, true, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, false, fmt.Errorf("explainsvc: restoring state: %w", err)
		}
	}
	labelled, err := explain.Label(sys, workload.NewGenerator(cfg.Seed).Batch(cfg.TrainQueries))
	if err != nil {
		return nil, nil, false, fmt.Errorf("explainsvc: bootstrap: %w", err)
	}
	r = treecnn.New(cfg.Seed)
	r.Train(explain.Samples(labelled), cfg.Epochs, cfg.Seed+1)
	kb, err = explain.CurateKB(r, expert.NewOracle(sys), labelled, cfg.KBSize)
	if err != nil {
		return nil, nil, false, fmt.Errorf("explainsvc: bootstrap kb: %w", err)
	}
	if cfg.Dir != "" {
		if err := saveState(cfg.Dir, r, kb); err != nil {
			return nil, nil, false, err
		}
	}
	return r, kb, false, nil
}
