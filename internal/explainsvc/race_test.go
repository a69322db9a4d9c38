package explainsvc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"htapxplain/internal/gateway"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/plan"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

// TestExplainRacesMaintenance is the -race gauntlet for the serving
// path: concurrent /explain requests race expert-corrected write-backs,
// KB expiry, and full retrain-and-swap cycles. Every successful
// explanation must be fully formed and cite live, fully-formed KB
// entries — the copy-on-write snapshot must never expose a torn state,
// and the KB must never be observably empty. A request that starts after
// an expiry returned never cites an entry it expired, reused retrieval or
// not.
func TestExplainRacesMaintenance(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 4)
	svc := newService(t, sys, g, r, kb, Config{
		Seed: 3, RetrainEpochs: 10,
	})

	pool := workload.NewGenerator(17).Batch(16)
	// seed the drift window so concurrent retrains have substance
	for _, q := range pool[:8] {
		if _, err := svc.Explain(q.SQL); err != nil {
			t.Fatalf("seeding explain: %v", err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// expiredUpTo is the maxSeq of the last ExpireOlderThan that returned
	var expiredUpTo atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				expired := expiredUpTo.Load()
				ex, err := svc.Explain(pool[(c*7+i)%len(pool)].SQL)
				if errors.Is(err, gateway.ErrOverloaded) {
					continue // shed under concurrent load is legitimate
				}
				if err != nil {
					errCh <- fmt.Errorf("explain: %w", err)
					return
				}
				if ex.Text() == "" && !ex.Response.None {
					errCh <- fmt.Errorf("empty explanation for %q", ex.SQL)
					return
				}
				if len(ex.Retrieved) == 0 {
					errCh <- fmt.Errorf("explanation cites no KB entries for %q", ex.SQL)
					return
				}
				for _, h := range ex.Retrieved {
					if h.Entry == nil || h.Entry.Explanation == "" ||
						len(h.Entry.Encoding) != treecnn.PairDim {
						errCh <- fmt.Errorf("torn KB entry retrieved: %+v", h.Entry)
						return
					}
					if h.Entry.Seq <= expired {
						errCh <- fmt.Errorf("%q cites entry %d (seq %d), expired up to seq %d before the request started",
							ex.SQL, h.Entry.ID, h.Entry.Seq, expired)
						return
					}
				}
			}
		}(c)
	}
	// expert feedback loop: corrections plus bounded expiry
	wg.Add(1)
	go func() {
		defer wg.Done()
		enc := make([]float64, treecnn.PairDim)
		for i := 0; i < 60; i++ {
			for j := range enc {
				enc[j] = float64((i+j)%7) / 7
			}
			if _, err := kb.Add(knowledge.Entry{Encoding: enc, SQL: "corrected query",
				Winner: plan.TP, Speedup: 2.0, Explanation: "expert-corrected explanation", Corrected: true}); err != nil {
				errCh <- fmt.Errorf("correct: %w", err)
				return
			}
			if i%15 == 14 {
				floor := kb.CurSeq() - 30
				kb.ExpireOlderThan(floor)
				expiredUpTo.Store(floor)
			}
		}
	}()
	// maintenance loop: forced retrain-and-swap cycles
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			svc.Retrain()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if kb.Len() == 0 {
		t.Error("KB empty after the gauntlet")
	}
	if svc.Router() == nil {
		t.Error("nil live router after the gauntlet")
	}
}
