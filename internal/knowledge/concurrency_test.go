package knowledge

import (
	"fmt"
	"sync"
	"testing"

	"htapxplain/internal/plan"
)

// TestConcurrentAddAndSearch exercises the knowledge base's thread-safety
// claim under the race detector: writers add entries and expire old ones
// while readers search and enumerate concurrently.
func TestConcurrentAddAndSearch(t *testing.T) {
	b := New(4)
	// seed a few so searches are never empty
	for i := 0; i < 8; i++ {
		if _, err := b.Add(entry([]float64{float64(i), 0, 0, 0}, "seed", plan.AP)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := b.Add(entry([]float64{float64(w), float64(i), 0, 0}, "w", plan.TP)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := b.TopK([]float64{float64(r), float64(i), 0, 0}, 3); err != nil {
					errCh <- err
					return
				}
				_ = b.Len()
				_ = b.Entries()
				_ = b.FactorCoverage()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			b.ExpireOlderThan(int64(i))
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent op failed: %v", err)
	}
	if b.Len() == 0 {
		t.Error("base should not be empty after the run")
	}
}

// TestConcurrentSearchWithHNSWSnapshot is the serving-path variant: with
// the HNSW index enabled, TopK goes through the copy-on-write snapshot
// with no lock, racing corrected write-backs, expiry and index rebuilds.
// Every hit must be a fully-formed live entry — no torn reads.
func TestConcurrentSearchWithHNSWSnapshot(t *testing.T) {
	b := New(4)
	for i := 0; i < 32; i++ {
		if _, err := b.Add(entry([]float64{float64(i), 1, 0, 0}, "seed", plan.AP)); err != nil {
			t.Fatal(err)
		}
	}
	b.EnableHNSW(8, 32, 1)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				hits, err := b.TopK([]float64{float64(r), float64(i % 7), 0, 0}, 3)
				if err != nil {
					errCh <- err
					return
				}
				if len(hits) == 0 {
					errCh <- fmt.Errorf("TopK returned no hits at iteration %d", i)
					return
				}
				for _, h := range hits {
					if h.Entry == nil || len(h.Entry.Encoding) != 4 || h.Entry.Explanation == "" {
						errCh <- fmt.Errorf("torn or incomplete entry: %+v", h.Entry)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := b.Add(Entry{Encoding: []float64{float64(i), 2, 0, 0}, SQL: "corrected",
				Winner: plan.TP, Speedup: 2.0, Explanation: "corrected explanation", Corrected: true}); err != nil {
				errCh <- err
				return
			}
			// expire the oldest while keeping a healthy floor of entries
			if i%10 == 9 {
				b.ExpireOlderThan(b.CurSeq() - 40)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			b.RebuildIndex()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent HNSW op failed: %v", err)
	}
	if b.Len() == 0 {
		t.Error("base should not be empty after the run")
	}
}
