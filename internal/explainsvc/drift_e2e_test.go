package explainsvc

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htapxplain/internal/gateway"
	"htapxplain/internal/plan"
	"htapxplain/internal/task"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

// TestDriftTriggersRetrainEndToEnd is the maintenance loop's acceptance
// test: an injected workload shift (the calibrator learns TP is suddenly
// ~120x slower than modeled, e.g. the row store lost its cache) must be
// detected by the background drift check, trigger an online retrain that
// swaps the router, refresh the knowledge base — and serving must stay
// available throughout, with router accuracy restored above threshold
// afterwards.
func TestDriftTriggersRetrainEndToEnd(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 4)
	// the race detector slows the tree-CNN's float-heavy training epochs
	// by an order of magnitude; fewer epochs keep the maintenance cycle
	// inside the test's deadlines (the near-single-class post-drift window
	// still fits easily)
	epochs := 30
	if raceEnabled {
		epochs = 6
	}
	// a window of 96 is checked from 24 samples on: once the whole pool
	// has been served
	svc := newService(t, sys, g, r, kb, Config{
		Seed: 5, Window: 96, DriftThreshold: 0.8,
		RetrainEpochs: epochs, CheckInterval: 20 * time.Millisecond,
	})

	pool := workload.NewGenerator(23).Batch(24)
	serveAll := func() {
		t.Helper()
		for _, q := range pool {
			if _, err := svc.Explain(q.SQL); err != nil {
				t.Fatalf("Explain %q: %v", q.SQL, err)
			}
		}
	}

	// Phase 1: steady state. The router was trained on these modeled
	// costs, so the window shows no drift and no retrain fires.
	serveAll()
	time.Sleep(60 * time.Millisecond) // a few check intervals
	st := svc.Stats()
	if st.Retrains != 0 {
		t.Fatalf("steady state retrained %d times; accuracy %.2f", st.Retrains, st.RouterAccuracy)
	}
	if st.RouterAccuracy < 0.8 {
		t.Fatalf("steady-state router accuracy %.2f, want >= 0.8", st.RouterAccuracy)
	}

	// Phase 2: inject drift while serving stays concurrent. Make the
	// engine that currently wins most of the pool 120x slower than
	// modeled (e.g. the column store lost its cache): the calibrated
	// winner flips for the bulk of the window and accuracy collapses.
	// The first calibrator sample seeds the scale directly, so one
	// observation is enough.
	tpWins := 0
	for _, q := range pool {
		res, err := sys.Run(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner == plan.TP {
			tpWins++
		}
	}
	slowEngine := plan.AP
	if tpWins > len(pool)/2 {
		slowEngine = plan.TP
	}
	cal := g.Calibrator()
	modeled := int64(10 * time.Millisecond)
	cal.Observe(slowEngine, modeled*120, modeled)

	stopServing := make(chan struct{})
	var serveErrs atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopServing:
				return
			default:
			}
			if _, err := svc.Explain(pool[i%len(pool)].SQL); err != nil &&
				!errors.Is(err, gateway.ErrOverloaded) {
				serveErrs.Add(1)
			}
			// leave the maintenance goroutine CPU headroom
			time.Sleep(time.Millisecond)
		}
	}()

	// The retrains counter increments when a cycle STARTS; KBExpired is
	// stamped near its end. Wait for both so phase 3 measures the
	// post-swap, post-refresh state.
	deadline := time.After(30 * time.Second)
	for st := svc.Stats(); st.Retrains == 0 || st.KBExpired == 0; st = svc.Stats() {
		select {
		case <-deadline:
			close(stopServing)
			wg.Wait()
			t.Fatalf("drift did not complete a retrain cycle; stats %+v", svc.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stopServing)
	wg.Wait()
	if n := serveErrs.Load(); n > 0 {
		t.Errorf("%d explain errors while retraining — serving must stay available", n)
	}

	// Phase 3: recovery. The swapped router was trained against the new
	// calibration; once the (reset) window refills, accuracy is back
	// above threshold and no further drift fires.
	recovered := false
	recoveryDeadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(recoveryDeadline) {
		serveAll()
		st = svc.Stats()
		if int(st.WindowSamples) >= 24 && st.RouterAccuracy >= 0.8 {
			recovered = true
			break
		}
	}
	st = svc.Stats()
	if !recovered {
		t.Fatalf("router accuracy %.2f over %d samples after retrain, want >= 0.8",
			st.RouterAccuracy, st.WindowSamples)
	}
	if st.KBExpired == 0 {
		t.Error("KB refresh expired nothing")
	}
	if st.KBEntries == 0 {
		t.Error("KB empty after refresh")
	}
	m := g.Metrics()
	if m.RouterRetrains == 0 || m.KBExpired == 0 {
		t.Errorf("gateway metrics missed the maintenance cycle: %+v", m)
	}
	t.Logf("retrains=%d accuracy=%.2f kb_entries=%d kb_expired=%d",
		st.Retrains, st.RouterAccuracy, st.KBEntries, st.KBExpired)
}

// TestDriftMonitorPanicCostsOnePass: a router-swap observer that panics
// inside a background retrain fails that maintenance pass and nothing
// else. The panic is in the drift loop's Err() with its stack and in
// panics_total, the maintenance lock is released, /explain and gateway
// reads keep being served, the loop keeps checking, and Close returns.
func TestDriftMonitorPanicCostsOnePass(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 2)
	before := g.Metrics().Panics
	svc := newService(t, sys, g, r, kb, Config{
		Seed: 5, Window: 32, RetrainEpochs: 1, CheckInterval: time.Millisecond,
		DriftThreshold: 2, // no accuracy reaches it: every check of a full-enough window retrains
		OnSwap: func(swapped *treecnn.Router) {
			if swapped != r {
				panic("observer of a retrained router")
			}
		},
	})
	pool := workload.NewGenerator(23).Batch(8)
	for _, q := range pool {
		if _, err := svc.Explain(q.SQL); err != nil {
			t.Fatalf("Explain %q: %v", q.SQL, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for g.Metrics().Panics < before+2 { // a second check ran after the first panicked
		if time.Now().After(deadline) {
			t.Fatalf("the drift monitor did not retrain twice; stats %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	var pe *task.PanicError
	if err := svc.drift.Err(); !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "(*Service).retrain") {
		t.Fatalf("drift loop Err() = %v, want the *task.PanicError raised in retrain", err)
	}
	if _, err := svc.Explain(pool[0].SQL); err != nil {
		t.Errorf("Explain after the panic: %v", err)
	}
	if resp, err := g.Submit("SELECT COUNT(*) FROM orders"); err != nil || resp.Err != nil || len(resp.Rows) != 1 {
		t.Errorf("read after the panic: %v / %+v", err, resp)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestSmallWindowStillChecksDrift: a drift check waits for a quarter of
// the window, so a window smaller than the default's 32-sample minimum is
// still judged. Sixteen served explanations whose recorded picks all
// disagree with the calibrated winner are a fully drifted window, and
// CheckNow retrains on it.
func TestSmallWindowStillChecksDrift(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 2)
	svc := newService(t, sys, g, r, kb, Config{Seed: 5, Window: 16, RetrainEpochs: 1})
	for _, q := range workload.NewGenerator(23).Batch(16) {
		if _, err := svc.Explain(q.SQL); err != nil {
			t.Fatalf("Explain %q: %v", q.SQL, err)
		}
	}
	samples := svc.win.snapshot()
	svc.win.reset()
	for _, sm := range samples {
		sm.pick = plan.TP
		if sm.modeled(g.Calibrator()).Winner == plan.TP {
			sm.pick = plan.AP
		}
		svc.win.add(sm)
	}
	if acc, n := windowAccuracy(svc.win.snapshot(), g.Calibrator()); acc != 0 || n != 16 {
		t.Fatalf("window accuracy %.2f over %d samples, want 0 over 16", acc, n)
	}
	if !svc.CheckNow() {
		t.Fatal("CheckNow on a full, fully drifted 16-sample window did not retrain")
	}
	if st := svc.Stats(); st.Retrains != 1 {
		t.Errorf("retrains = %d, want 1", st.Retrains)
	}
}
