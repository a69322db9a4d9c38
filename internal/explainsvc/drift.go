package explainsvc

import (
	"sync"
	"time"

	"htapxplain/internal/explain"
	"htapxplain/internal/latency"
	"htapxplain/internal/plan"
	"htapxplain/internal/treecnn"
)

// sample is one served explanation in the drift window. Raw modeled
// latencies are stored — not a precomputed label — so labels are derived
// at check time with the calibrator's CURRENT scales. A calibration
// shift therefore retroactively relabels the window: accuracy over old
// samples drops the moment the model learns reality moved, which is
// exactly the drift signal the maintenance loop watches.
type sample struct {
	sql    string
	fp     string
	pair   *plan.Pair
	tp, ap time.Duration // as modeled, before calibration
	pick   plan.Engine   // the live router's prediction at serve time
}

// modeled is the sample's plan pair under today's calibration: both
// latencies scaled by the calibrator's current factors, and the winner
// they imply. The pair is the template's cached one, so it takes the
// sample's own SQL.
func (sm *sample) modeled(cal *latency.Calibrator) plan.Modeled {
	pair := *sm.pair
	pair.SQL = sm.sql
	return plan.NewModeled(pair, cal.CalibratedDuration(plan.TP, sm.tp), cal.CalibratedDuration(plan.AP, sm.ap))
}

// window is a fixed-capacity ring buffer of recent samples.
type window struct {
	mu   sync.Mutex
	buf  []sample
	next int
	n    int
}

func newWindow(capacity int) *window {
	return &window{buf: make([]sample, capacity)}
}

func (w *window) add(s sample) {
	w.mu.Lock()
	w.buf[w.next] = s
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

func (w *window) snapshot() []sample {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]sample, 0, w.n)
	start := w.next - w.n
	for i := 0; i < w.n; i++ {
		out = append(out, w.buf[(start+i+len(w.buf))%len(w.buf)])
	}
	return out
}

func (w *window) reset() {
	w.mu.Lock()
	w.n, w.next = 0, 0
	w.mu.Unlock()
}

// windowAccuracy scores the recorded router picks against the calibrated
// modeled winners. Returns (accuracy, samples); accuracy is 1 on an
// empty window (no evidence of drift).
func windowAccuracy(samples []sample, cal *latency.Calibrator) (float64, int) {
	if len(samples) == 0 {
		return 1, 0
	}
	agree := 0
	for i := range samples {
		if samples[i].pick == samples[i].modeled(cal).Winner {
			agree++
		}
	}
	return float64(agree) / float64(len(samples)), len(samples)
}

// CheckNow runs one drift check, retraining if the window shows the live
// router disagreeing with the calibrated model beyond threshold. Returns
// whether a retrain fired. Safe to call concurrently with serving and
// with the background loop.
func (s *Service) CheckNow() bool {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	samples := s.win.snapshot()
	if len(samples) < s.cfg.minSamples() {
		return false
	}
	acc, _ := windowAccuracy(samples, s.gw.Calibrator())
	if acc >= s.cfg.DriftThreshold {
		return false
	}
	s.retrain(samples)
	return true
}

// Retrain forces a retrain-and-refresh cycle over the current window
// regardless of measured drift — the operational "I changed the
// hardware" hook. No-op on an empty window; returns whether it ran.
func (s *Service) Retrain() bool {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	samples := s.win.snapshot()
	if len(samples) == 0 {
		return false
	}
	s.retrain(samples)
	return true
}

// retrain (caller holds maintMu) trains a fresh router on the window
// labeled by current calibration, atomically swaps it live, re-curates
// the knowledge base under the new router's encodings, and expires the
// pre-refresh entries. Re-curation happens BEFORE expiry so concurrent
// readers always retrieve from a populated KB — a torn state where the
// base is empty is never published.
func (s *Service) retrain(samples []sample) {
	cal := s.gw.Calibrator()
	tcs := make([]treecnn.Sample, 0, len(samples))
	for i := range samples {
		tcs = append(tcs, treecnn.Sample{Pair: samples[i].pair, Label: samples[i].modeled(cal).Winner})
	}
	gen := s.retrains.Add(1)
	r := treecnn.New(s.cfg.Seed + gen)
	r.Train(tcs, s.cfg.RetrainEpochs, s.cfg.Seed+gen+1)
	s.swapRouter(r)
	// The old router's routing decisions in the plan cache are stale now.
	s.gw.InvalidatePlans()

	// KB refresh: everything currently present is older than floor.
	oracle := s.ex.Load().Oracle
	floor := s.kb.CurSeq()
	added, seen := 0, make(map[string]bool, len(samples))
	for i := len(samples) - 1; i >= 0 && added < recurateMax; i-- {
		sm := &samples[i] // newest first
		if seen[sm.fp] {
			continue
		}
		seen[sm.fp] = true
		m := sm.modeled(cal)
		truth, err := oracle.Judge(&m)
		if err != nil {
			continue
		}
		if _, err := s.kb.Add(explain.NewEntry(r, &m, oracle.Explain(truth), truth.AllFactors(), true)); err != nil {
			continue
		}
		added++
	}
	// Only expire once replacements exist: a failed re-curation must not
	// leave readers with an empty base.
	if added > 0 {
		expired := s.kb.ExpireOlderThan(floor)
		s.kbExpired.Add(int64(expired))
		s.kb.RebuildIndex()
	}
	s.win.reset()
	if s.cfg.Dir != "" {
		// Persist best-effort; serving continues regardless.
		_ = saveState(s.cfg.Dir, r, s.kb)
	}
}
