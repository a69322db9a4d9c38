package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/value"
)

// TestRecyclerTakeAndBound: a take of n has room for n whatever array its
// class hands back, a released array is what the next take of its class
// gets, and a give that would put the idle bytes past maxIdleBytes is
// dropped.
func TestRecyclerTakeAndBound(t *testing.T) {
	var l freeList[int64]
	defer func() { // leave the shared idle budget as the test found it
		for k := range l.free {
			for len(l.free[k]) > 0 {
				l.take(1 << k)
			}
		}
	}()
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 1000, 1024, 1025, 60001} {
		buf := l.take(n)
		if len(buf) != n || cap(buf) < n {
			t.Fatalf("take(%d): len %d cap %d", n, len(buf), cap(buf))
		}
		l.give(buf)
	}
	// an array of odd capacity is filed under the class below it
	l.give(make([]int64, 0, 100))
	for _, n := range []int{33, 64, 65, 100} {
		if buf := l.take(n); cap(buf) < n {
			t.Fatalf("take(%d) after giving cap 100: cap %d", n, cap(buf))
		}
	}
	a := l.take(500)
	l.give(a)
	if b := l.take(300); &b[:1][0] != &a[:1][0] {
		t.Error("a take did not get the array its class last released")
	}

	// fill the budget: every give beyond it is dropped, and it holds again
	// once what was given back has been taken
	recycler.mu.Lock()
	idle := recycler.idle
	recycler.mu.Unlock()
	const size = 1 << 16 // elements: 512 KiB an array
	var big freeList[int64]
	var held [][]int64
	for i := 0; i < maxIdleBytes/(8*size)+4; i++ {
		held = append(held, make([]int64, size))
	}
	for _, buf := range held {
		big.give(buf)
	}
	recycler.mu.Lock()
	kept, full := len(big.free[16]), recycler.idle
	recycler.mu.Unlock()
	if full > maxIdleBytes {
		t.Errorf("%d bytes idle, bound %d", full, maxIdleBytes)
	}
	if want := (maxIdleBytes - idle) / (8 * size); kept != want {
		t.Errorf("kept %d arrays of %d bytes over %d idle, want %d", kept, 8*size, idle, want)
	}
	for i := 0; i < kept; i++ {
		big.take(size)
	}
	recycler.mu.Lock()
	after := recycler.idle
	recycler.mu.Unlock()
	if after != idle {
		t.Errorf("idle bytes %d after taking back what was kept, want %d", after, idle)
	}
}

// TestJoinBuildFootprint gates the hash-join build's memory as counts: a
// build side of int keys of which no column is read above the join is a key
// array and the index over it, all recycled arrays, so it costs the same
// number of allocations for 5 batches as for 15, and in steady state at most
// a byte a row — serially and when the build forks four ways, each worker's
// key array holding the whole build so the parts join without regrowth.
// Not skipped under -race: the recycler is not a sync.Pool.
func TestJoinBuildFootprint(t *testing.T) {
	scanOf := func(name string, n int) *ColTableScan {
		cat := catalog.New(1)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i * 7 % n)), value.NewString("payload")}
		}
		cols := []catalog.Column{{Name: "k", Type: catalog.TypeInt}, {Name: "v", Type: catalog.TypeString}}
		if err := cat.AddTable(&catalog.Table{Name: name, Columns: cols, Rows: int64(n), AvgRowBytes: 24}); err != nil {
			t.Fatal(err)
		}
		s, err := colstore.NewStore(cat, map[string][]value.Row{name: rows})
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := s.Table(name)
		return NewColTableScan(tbl, name, []int{0, 1}, nil, nil)
	}
	const n, builds = 15000, 10
	for _, dop := range []int{1, 4} {
		t.Run(fmt.Sprintf("dop%d", dop), func(t *testing.T) {
			measure := func(name string, n int) (allocs float64, bytesPerBuild uint64) {
				hj := NewHashJoin(scanOf(name+"_probe", 1), scanOf(name, n), []int{0}, []int{0}, nil, []int{})
				build := func() {
					ctx := NewContext()
					ctx.DOP = dop
					if err := hj.Open(ctx); err != nil {
						t.Fatal(err)
					}
					if ctx.Stats.HashBuildRows != int64(n) || (dop > 1) != (ctx.Stats.ParallelWorkers == int64(dop)) {
						t.Fatalf("precondition: %d build rows, %d workers", ctx.Stats.HashBuildRows, ctx.Stats.ParallelWorkers)
					}
					if err := hj.Close(); err != nil {
						t.Fatal(err)
					}
				}
				// warm: the scans keep their buffers, and the recycler holds
				// the arrays of as many workers as ever drew morsels at once
				for i := 0; i < 20; i++ {
					build()
				}
				// steady state is the least of three rounds: a round in which
				// more workers than ever before decode at once takes a target
				// no earlier build gave back
				allocs, bytesPerBuild = math.Inf(1), math.MaxUint64
				for r := 0; r < 3; r++ {
					allocs = min(allocs, testing.AllocsPerRun(5, build))
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < builds; i++ {
						build()
					}
					runtime.ReadMemStats(&after)
					bytesPerBuild = min(bytesPerBuild, (after.TotalAlloc-before.TotalAlloc)/builds)
				}
				return allocs, bytesPerBuild
			}
			smallAllocs, _ := measure("small", n/3)
			allocs, bytes := measure("big", n)
			t.Logf("DOP %d, %d build rows: %.0f allocations, %d bytes (%.2f a row); %d rows: %.0f allocations",
				dop, n, allocs, bytes, float64(bytes)/n, n/3, smallAllocs)
			if allocs != smallAllocs {
				t.Errorf("%.0f allocations to build %d rows, %.0f to build %d: the count depends on the batch count", allocs, n, smallAllocs, n/3)
			}
			if bytes > n {
				t.Errorf("%d bytes to build %d rows warm, want at most 1 a row", bytes, n)
			}
		})
	}
}

// TestJoinTablesAfterClose: a hash join gives its table's arrays back at
// Close and the next build anywhere may take them, so no reader may keep
// one past Close. Pooled runners of a 2-join plan and a 4-join chain whose
// joins filter the builds below them run interleaved — on one goroutine,
// where each Close feeds the other plan's next build, and on two at once —
// at DOP 1 and 4, and every result equals a fresh Drain's. Under the race
// detector a released array is poisoned, so a read after Close fails here.
func TestJoinTablesAfterClose(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nBig := 3*colstore.ChunkSize + 77 // four morsels: a DOP-4 build forks
	probe := colTableOf(t, "p", joinRows(rng, 300, 150))
	b1 := colTableOf(t, "b1", joinRows(rng, nBig, colstore.ChunkSize+5))
	b2 := colTableOf(t, "b2", joinRows(rng, 40, 20))
	b3 := colTableOf(t, "b3", joinRows(rng, nBig, 7))
	b4 := colTableOf(t, "b4", joinRows(rng, 30, 3))
	scan := func(tbl *colstore.Table, name string) func() BatchOperator {
		return func() BatchOperator { return fullScan(tbl, name) }
	}
	w := len(probe.Meta.Columns)
	// j1 is p.c4 = b1.c4 (dense ints); every join above it keys on a lower
	// build's column, so its table filters that build
	j1 := joinStep{build: scan(b1, "b1"), pk: []int{4}, bk: []int{4}}
	// p ⋈ b1 ⋈ b3 on b1.c4: b3's dense int table filters b1
	two := chainOf(fullScan(probe, "p"), []joinStep{j1, {build: scan(b3, "b3"), pk: []int{w + 4}, bk: []int{4}}}, false)
	// p ⋈ b1 ⋈ b2 ⋈ b3 ⋈ b4: b2's generic table filters b1 on its tricky
	// c0, b3's b2, and b4's few keys b1 again
	four := chainOf(fullScan(probe, "p"), []joinStep{j1,
		{build: scan(b2, "b2"), pk: []int{w + 0}, bk: []int{0}},
		{build: scan(b3, "b3"), pk: []int{2*w + 4}, bk: []int{4}},
		{build: scan(b4, "b4"), pk: []int{w + 4}, bk: []int{4}},
	}, false)
	plans := []BatchOperator{two, four}
	for _, dop := range []int{1, 4} {
		want := make([][]string, len(plans))
		for i, p := range plans {
			rows, stats := drainChain(t, p, dop)
			if len(rows) == 0 || (dop > 1 && stats.ParallelWorkers == 0) {
				t.Fatalf("precondition: plan %d at DOP %d gives %d rows over %d workers", i, dop, len(rows), stats.ParallelWorkers)
			}
			want[i] = sortedStrings(rows)
		}
		run := func(r *Runner, i int) error {
			ctx := NewContext()
			ctx.DOP = dop
			rows, err := r.Drain(ctx)
			if err != nil {
				return err
			}
			if got := sortedStrings(rows); fmt.Sprint(got) != fmt.Sprint(want[i]) {
				return fmt.Errorf("plan %d at DOP %d: %d rows differ from a fresh Drain's %d", i, dop, len(got), len(want[i]))
			}
			return nil
		}
		runners := []*Runner{NewRunner(two.Clone()), NewRunner(four.Clone())}
		for k := 0; k < 6; k++ {
			if err := run(runners[k%2], k%2); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 6 && errs[g] == nil; k++ {
					errs[g] = run(runners[(g+k)%2], (g+k)%2)
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func sortedStrings(rows []value.Row) []string {
	s := rowStrings(rows)
	slices.Sort(s)
	return s
}
