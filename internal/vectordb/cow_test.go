package vectordb

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestSnapshotIsImmutable: a view captured before writes must keep
// answering from its point in time — later Adds are invisible, later
// Deletes leave the old view's results intact.
func TestSnapshotIsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New(4, Cosine)
	for i := 0; i < 80; i++ {
		if _, err := s.Add(randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	s.BuildHNSW(8, 32, 1)
	old := s.Snapshot()
	if old == nil {
		t.Fatal("Snapshot nil after BuildHNSW")
	}
	q := randVec(rng, 4)
	before, err := old.SearchHNSW(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	oldLen := old.Len()

	// mutate the store heavily
	target := []float64{50, 50, 50, 50}
	newID, err := s.Add(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range before {
		if err := s.Delete(h.ID); err != nil {
			t.Fatal(err)
		}
	}

	// old view: unchanged results, unchanged length, new vector invisible
	after, err := old.SearchHNSW(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("old view hit count changed: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i].ID != after[i].ID {
			t.Fatalf("old view results changed at %d: %+v vs %+v", i, before, after)
		}
	}
	if old.Len() != oldLen {
		t.Errorf("old view Len changed: %d -> %d", oldLen, old.Len())
	}
	if hit, _ := old.SearchHNSW(target, 1); len(hit) > 0 && hit[0].ID == newID {
		t.Error("vector added after the snapshot is visible in the old view")
	}

	// new view: sees the add and the deletes
	cur := s.Snapshot()
	if hit, err := cur.SearchHNSW(target, 1); err != nil || len(hit) == 0 || hit[0].ID != newID {
		t.Errorf("current view misses the new vector: %+v (%v)", hit, err)
	}
	curHits, _ := cur.SearchHNSW(q, 5)
	for _, h := range curHits {
		for _, d := range before {
			if h.ID == d.ID {
				t.Errorf("deleted id %d still returned by current view", d.ID)
			}
		}
	}
}

// TestConcurrentSearchAndWrite races lock-free view searches against
// Add/Delete publishing new views; the race detector proves the
// copy-on-write protocol (run with -race).
func TestConcurrentSearchAndWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(4, Cosine)
	for i := 0; i < 60; i++ {
		if _, err := s.Add(randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	s.BuildHNSW(8, 32, 2)
	queries := make([][]float64, 16)
	for i := range queries {
		queries[i] = randVec(rng, 4)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := s.SearchHNSW(queries[(r+i)%len(queries)], 3); err != nil {
					errCh <- err
					return
				}
				v := s.Snapshot()
				if _, err := v.Search(queries[i%len(queries)], 3); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(99))
		for i := 0; i < 100; i++ {
			id, err := s.Add(randVec(wrng, 4))
			if err != nil {
				errCh <- err
				return
			}
			if i%3 == 0 {
				if err := s.Delete(id); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent op failed: %v", err)
	}
	if s.Snapshot().Len() != s.Len() {
		t.Errorf("view Len %d != store Len %d after quiesce", s.Snapshot().Len(), s.Len())
	}
}

// TestSearchRacesEveryWriter races lock-free searches against all three
// writers — Add, DeleteMany and a BuildHNSW rebuild — each of which
// publishes views while searchers hold older ones. A view is a point in
// time: whatever is published after it, a search of it must return only
// its own live rows, nearest first, and return the same hits when asked
// again. A torn view (adjacency, rows or tombstones mutated under a
// reader) or a scratch shared by two searches breaks one of these, or is
// reported by the race detector (run with -race).
func TestSearchRacesEveryWriter(t *testing.T) {
	s, queries := clusteredStore(t, Cosine, 8, 300, 6)
	s.BuildHNSW(8, 32, 2)

	stop := make(chan struct{})
	var searchers, writer sync.WaitGroup
	for r := 0; r < 4; r++ {
		searchers.Add(1)
		go func(r int) {
			defer searchers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := s.Snapshot()
				q := queries[(r+i)%len(queries)]
				first, err := v.SearchHNSW(q, 5)
				if err != nil {
					t.Error(err)
					return
				}
				for j, h := range first {
					if h.ID >= v.n || v.dead.has(h.ID) {
						t.Errorf("hit %d is not a live row of its view (%d rows): %+v", j, v.n, h)
						return
					}
					if j > 0 && h.Distance < first[j-1].Distance {
						t.Errorf("hits out of order: %+v", first)
						return
					}
				}
				exact, err := v.Search(q, 5)
				if err != nil {
					t.Error(err)
					return
				}
				again, _ := v.SearchHNSW(q, 5)
				exactAgain, _ := v.Search(q, 5)
				if !slices.Equal(first, again) || !slices.Equal(exact, exactAgain) {
					t.Errorf("a held view changed its answer:\n hnsw %+v\n then %+v\nexact %+v\n then %+v", first, again, exact, exactAgain)
					return
				}
			}
		}(r)
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(stop)
		wrng := rand.New(rand.NewSource(77))
		var fresh []int
		for i := 0; i < 240; i++ {
			id, err := s.Add(randVec(wrng, 8))
			if err != nil {
				t.Error(err)
				return
			}
			fresh = append(fresh, id)
			if len(fresh) == 8 {
				if err := s.DeleteMany(fresh[:5]); err != nil {
					t.Error(err)
					return
				}
				fresh = fresh[:0]
			}
			if i%60 == 59 {
				s.BuildHNSW(8, 32, int64(i))
			}
		}
	}()
	writer.Wait()
	searchers.Wait()
	if s.Snapshot().Len() != s.Len() || s.Len() != 300+240-150 {
		t.Errorf("after quiesce: view Len %d, store Len %d, want %d", s.Snapshot().Len(), s.Len(), 300+240-150)
	}
}
