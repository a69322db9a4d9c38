package knowledge

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"htapxplain/internal/expert"
	"htapxplain/internal/plan"
)

func entry(enc []float64, sql string, winner plan.Engine, factors ...expert.Factor) Entry {
	return Entry{
		SQL: sql, Encoding: enc, TPPlanJSON: "{}", APPlanJSON: "{}",
		Winner: winner, Speedup: 3, Explanation: "because reasons", Factors: factors,
	}
}

func TestAddGetTopK(t *testing.T) {
	b := New(2)
	id1, err := b.Add(entry([]float64{1, 0}, "q1", plan.AP, expert.FactorHashJoinAdvantage))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := b.Add(entry([]float64{0, 1}, "q2", plan.TP, expert.FactorIndexPointLookup))
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if e, ok := b.Get(id1); !ok || e.SQL != "q1" {
		t.Errorf("Get(id1) = %+v %v", e, ok)
	}
	if _, ok := b.Get(999); ok {
		t.Error("Get(bogus) should fail")
	}
	hits, err := b.TopK([]float64{0.9, 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Entry.ID != id1 {
		t.Errorf("TopK = %+v", hits)
	}
	hits, err = b.TopK([]float64{0.1, 0.9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].Entry.ID != id2 {
		t.Errorf("nearest should be q2: %+v", hits)
	}
	if hits[0].Distance > hits[1].Distance {
		t.Error("hits must be sorted by distance")
	}
}

func TestAddRejectsWrongDimension(t *testing.T) {
	b := New(4)
	if _, err := b.Add(entry([]float64{1}, "q", plan.TP)); err == nil {
		t.Error("wrong-dimension encoding should fail")
	}
}

func TestCorrectMarksEntries(t *testing.T) {
	b := New(2)
	id, err := b.Add(Entry{Encoding: []float64{1, 1}, SQL: "q", Winner: plan.AP, Speedup: 5,
		Explanation: "corrected text", Factors: []expert.Factor{expert.FactorColumnarScan}, Corrected: true})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := b.Get(id)
	if !e.Corrected || e.Explanation != "corrected text" {
		t.Errorf("corrected entry: %+v", e)
	}
}

func TestExpireOlderThan(t *testing.T) {
	b := New(1)
	for i := 0; i < 5; i++ {
		if _, err := b.Add(entry([]float64{float64(i)}, "q", plan.TP)); err != nil {
			t.Fatal(err)
		}
	}
	// entries got Seq 1..5
	if n := b.ExpireOlderThan(3); n != 3 {
		t.Errorf("expired %d, want 3", n)
	}
	if b.Len() != 2 {
		t.Errorf("Len after expiry = %d", b.Len())
	}
	// expired entries no longer retrievable
	hits, err := b.TopK([]float64{0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Entry.Seq <= 3 {
			t.Errorf("expired entry retrieved: %+v", h.Entry)
		}
	}
}

// TestMassExpiryIsOneBatch: a retrain expires most of the base at once,
// under the base's lock. That must cost one tombstone-set clone and one
// published vector view — not one of each per entry, which is quadratic
// and stalls /metrics and every writer for seconds at serving scale.
// Measured in allocations, which count the same on any machine: a view is
// an allocation, and a set cloned per entry is bytes that grow with n².
func TestMassExpiryIsOneBatch(t *testing.T) {
	expire := func(n int) (mallocs, bytes uint64) {
		rng := rand.New(rand.NewSource(3))
		b := New(4)
		for i := 0; i < n+10; i++ {
			enc := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			if _, err := b.Add(entry(enc, "q", plan.TP)); err != nil {
				t.Fatal(err)
			}
		}
		b.EnableHNSW(8, 32, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		expired := b.ExpireOlderThan(int64(n))
		runtime.ReadMemStats(&after)
		if expired != n || b.Len() != 10 {
			t.Fatalf("expired %d of %d, %d left, want 10 left", expired, n, b.Len())
		}
		hits, err := b.TopK([]float64{0.5, 0.5, 0.5, 0.5}, 3)
		if err != nil || len(hits) != 3 {
			t.Fatalf("TopK after expiring %d: %d hits, err %v", n, len(hits), err)
		}
		for _, h := range hits {
			if h.Entry.Seq <= int64(n) {
				t.Fatalf("expired entry retrieved: seq %d", h.Entry.Seq)
			}
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	smallN, largeN := 1000, 4000
	smallMallocs, smallBytes := expire(smallN)
	largeMallocs, largeBytes := expire(largeN)
	t.Logf("expiring %d: %d allocations, %d bytes; expiring %d: %d allocations, %d bytes",
		smallN, smallMallocs, smallBytes, largeN, largeMallocs, largeBytes)
	if largeMallocs > uint64(largeN/4) {
		t.Errorf("expiring %d entries made %d allocations: a view was published per entry, want one per expiry", largeN, largeMallocs)
	}
	if largeBytes > 8*smallBytes {
		t.Errorf("4x the entries allocated %.1fx the bytes (%d -> %d): expiry is not linear", float64(largeBytes)/float64(smallBytes), smallBytes, largeBytes)
	}
}

func TestFactorCoverage(t *testing.T) {
	b := New(1)
	_, _ = b.Add(entry([]float64{0}, "a", plan.AP, expert.FactorHashJoinAdvantage, expert.FactorColumnarScan))
	_, _ = b.Add(entry([]float64{1}, "b", plan.AP, expert.FactorHashJoinAdvantage))
	cov := b.FactorCoverage()
	if cov[expert.FactorHashJoinAdvantage] != 2 || cov[expert.FactorColumnarScan] != 1 {
		t.Errorf("coverage = %v", cov)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := New(2)
	_, _ = b.Add(entry([]float64{1, 2}, "q1", plan.AP, expert.FactorHashJoinAdvantage))
	_, _ = b.Add(entry([]float64{3, 4}, "q2", plan.TP, expert.FactorIndexOrderTopN))
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded Len = %d", loaded.Len())
	}
	origEntries, loadedEntries := b.Entries(), loaded.Entries()
	for i := range origEntries {
		if origEntries[i].SQL != loadedEntries[i].SQL ||
			origEntries[i].Winner != loadedEntries[i].Winner {
			t.Errorf("entry %d differs after round trip", i)
		}
	}
	// retrieval still works on the loaded base
	hits, err := loaded.TopK([]float64{1, 2}, 1)
	if err != nil || len(hits) != 1 || hits[0].Entry.SQL != "q1" {
		t.Errorf("loaded TopK = %+v, %v", hits, err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("Load should reject garbage")
	}
}

func TestEntriesDeterministicOrder(t *testing.T) {
	b := New(1)
	for i := 0; i < 10; i++ {
		_, _ = b.Add(entry([]float64{float64(i)}, "q", plan.TP))
	}
	es := b.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatal("Entries() must be ordered by ID")
		}
	}
}

func TestHNSWModeRetrieves(t *testing.T) {
	b := New(2)
	for i := 0; i < 50; i++ {
		_, _ = b.Add(entry([]float64{float64(i), float64(i % 7)}, "q", plan.TP))
	}
	b.EnableHNSW(8, 32, 1)
	hits, err := b.TopK([]float64{25, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("HNSW TopK = %d hits", len(hits))
	}
}

// TestVersionCountsChanges: every change to what TopK can return bumps
// Version — an Add before and after EnableHNSW, EnableHNSW itself, an
// expiry that expires something and RebuildIndex — and nothing else does.
func TestVersionCountsChanges(t *testing.T) {
	b := New(2)
	v := b.Version()
	step := func(what string, changes bool, f func()) {
		t.Helper()
		f()
		got := b.Version()
		if changed := got != v; changed != changes {
			t.Errorf("%s: version %d -> %d, want a change: %v", what, v, got, changes)
		}
		if got < v {
			t.Errorf("%s: version went back from %d to %d", what, v, got)
		}
		v = got
	}
	add := func() {
		if _, err := b.Add(entry([]float64{1, 0}, "q", plan.AP)); err != nil {
			t.Fatal(err)
		}
	}
	step("Add, unindexed", true, add)
	step("RebuildIndex before EnableHNSW", false, b.RebuildIndex)
	step("EnableHNSW", true, func() { b.EnableHNSW(4, 8, 1) })
	step("Add, indexed", true, add)
	step("RebuildIndex", true, b.RebuildIndex)
	step("ExpireOlderThan of nothing", false, func() { b.ExpireOlderThan(0) })
	step("ExpireOlderThan", true, func() { b.ExpireOlderThan(1) })
	step("reads", false, func() {
		b.Len()
		b.Entries()
		if _, err := b.TopK([]float64{1, 0}, 1); err != nil {
			t.Fatal(err)
		}
	})
}
