package vectordb

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestAddAndExactSearch(t *testing.T) {
	s := New(2, L2)
	ids := make([]int, 3)
	for i, v := range [][]float64{{0, 0}, {1, 0}, {5, 5}} {
		id, err := s.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	hits, err := s.Search([]float64{0.9, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].ID != ids[1] || hits[1].ID != ids[0] {
		t.Errorf("hits = %+v", hits)
	}
	if s.Len() != 3 || s.Dim() != 2 {
		t.Errorf("Len/Dim = %d/%d", s.Len(), s.Dim())
	}
}

func TestDimensionMismatchErrors(t *testing.T) {
	s := New(3, Cosine)
	if _, err := s.Add([]float64{1, 2}); err == nil {
		t.Error("Add with wrong dim should fail")
	}
	if _, err := s.Search([]float64{1}, 1); err == nil {
		t.Error("Search with wrong dim should fail")
	}
	if _, err := s.SearchHNSW([]float64{1}, 1); err == nil {
		t.Error("SearchHNSW with wrong dim should fail")
	}
}

func TestSearchHNSWRequiresBuild(t *testing.T) {
	s := New(2, L2)
	if _, err := s.Add([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SearchHNSW([]float64{1, 1}, 1); err == nil {
		t.Error("SearchHNSW before BuildHNSW should fail")
	}
}

func TestDeleteTombstones(t *testing.T) {
	s := New(1, L2)
	id0, _ := s.Add([]float64{0})
	id1, _ := s.Add([]float64{1})
	if err := s.Delete(id0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id0); err == nil {
		t.Error("double delete should fail")
	}
	if err := s.Delete(999); err == nil {
		t.Error("deleting unknown id should fail")
	}
	hits, _ := s.Search([]float64{0}, 5)
	if len(hits) != 1 || hits[0].ID != id1 {
		t.Errorf("deleted vector still returned: %+v", hits)
	}
	if s.Len() != 1 {
		t.Errorf("Len after delete = %d", s.Len())
	}
}

// TestExactSearchIsTrueKNNProperty: the store's exact search must agree
// with a brute-force recomputation.
func TestExactSearchIsTrueKNNProperty(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(8)
		n := 1 + rng.Intn(60)
		s := New(dim, L2)
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = randVec(rng, dim)
			if _, err := s.Add(vecs[i]); err != nil {
				return false
			}
		}
		q := randVec(rng, dim)
		k := 1 + int(kRaw)%10
		hits, err := s.Search(q, k)
		if err != nil {
			return false
		}
		type pair struct {
			id int
			d  float64
		}
		want := make([]pair, n)
		for i, v := range vecs {
			want[i] = pair{i, L2.Distance(q, v)}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].d != want[b].d {
				return want[a].d < want[b].d
			}
			return want[a].id < want[b].id
		})
		if k > n {
			k = n
		}
		if len(hits) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if hits[i].ID != want[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHNSWRecallOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim, n = 8, 600
	s := New(dim, Cosine)
	centers := make([][]float64, 6)
	for i := range centers {
		centers[i] = randVec(rng, dim)
	}
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		v := make([]float64, dim)
		for d := range v {
			v[d] = c[d] + 0.05*rng.NormFloat64()
		}
		if _, err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	s.BuildHNSW(12, 64, 3)
	found, total := 0, 0
	for q := 0; q < 40; q++ {
		query := randVec(rng, dim)
		exact, err := s.Search(query, 3)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := s.SearchHNSW(query, 3)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int]bool{}
		for _, h := range exact {
			truth[h.ID] = true
		}
		for _, h := range approx {
			total++
			if truth[h.ID] {
				found++
			}
		}
	}
	recall := float64(found) / float64(total)
	if recall < 0.85 {
		t.Errorf("HNSW recall@3 = %.2f, want >= 0.85", recall)
	}
}

func TestHNSWIncrementalInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := New(4, L2)
	for i := 0; i < 50; i++ {
		if _, err := s.Add(randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	s.BuildHNSW(8, 32, 1)
	// vectors added after the build must be findable
	target := []float64{100, 100, 100, 100}
	id, err := s.Add(target)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := s.SearchHNSW(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ID != id {
		t.Errorf("incrementally inserted vector not found: %+v", hits)
	}
}

func TestMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []Metric{Cosine, L2} {
		for trial := 0; trial < 50; trial++ {
			a, b := randVec(rng, 5), randVec(rng, 5)
			dab, dba := m.Distance(a, b), m.Distance(b, a)
			if math.Abs(dab-dba) > 1e-12 {
				t.Fatalf("%v not symmetric: %v vs %v", m, dab, dba)
			}
			if dab < 0 {
				t.Fatalf("%v negative distance %v", m, dab)
			}
			if self := m.Distance(a, a); self > 1e-9 {
				t.Fatalf("%v self-distance %v", m, self)
			}
		}
	}
	if Cosine.String() != "cosine" || L2.String() != "l2" {
		t.Error("metric names wrong")
	}
}

func TestCosineZeroVector(t *testing.T) {
	d := Cosine.Distance([]float64{0, 0}, []float64{1, 0})
	if d != 1 {
		t.Errorf("cosine distance with zero vector = %v, want 1", d)
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	s := New(1, L2)
	for i := 0; i < 5; i++ {
		if _, err := s.Add([]float64{1}); err != nil { // all identical
			t.Fatal(err)
		}
	}
	h1, _ := s.Search([]float64{1}, 3)
	h2, _ := s.Search([]float64{1}, 3)
	for i := range h1 {
		if h1[i].ID != h2[i].ID {
			t.Fatal("tie-break not deterministic")
		}
	}
	// ties resolve by ascending ID
	if h1[0].ID != 0 || h1[1].ID != 1 {
		t.Errorf("tie order: %+v", h1)
	}
}

// clusteredStore fills a store with n vectors in near-duplicate clusters
// around a few centres — the shape the knowledge base has at serving
// scale — and returns it with queries drawn the same way.
func clusteredStore(t testing.TB, metric Metric, dim, n int, seed int64) (*Store, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	centres := make([][]float64, 20)
	for i := range centres {
		centres[i] = randVec(rng, dim)
	}
	near := func() []float64 {
		c := centres[rng.Intn(len(centres))]
		v := make([]float64, dim)
		for d := range v {
			v[d] = c[d] + (rng.Float64()-0.5)*0.05
		}
		return v
	}
	s := New(dim, metric)
	for i := 0; i < n; i++ {
		if _, err := s.Add(near()); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = near()
	}
	return s, queries
}

func uniformStore(t testing.TB, metric Metric, dim, n int, seed int64) (*Store, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New(dim, metric)
	for i := 0; i < n; i++ {
		if _, err := s.Add(randVec(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}
	return s, queries
}

// TestHNSWMatchesMapReference is the differential for the array-backed
// index: over the same rows, seed and kernel it must build the graph the
// old map-based index built and return the hits it returned — for every k,
// with tombstones, after incremental Adds and after a rebuild. Hits at
// equal distance may come in either order.
func TestHNSWMatchesMapReference(t *testing.T) {
	const m, efC, seed = 8, 32, 5
	byDistThenID := func(a, b Hit) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	}
	for _, tc := range []struct {
		name  string
		build func(testing.TB, Metric, int, int, int64) (*Store, [][]float64)
	}{{"clustered", clusteredStore}, {"uniform", uniformStore}} {
		for _, metric := range []Metric{Cosine, L2} {
			s, queries := tc.build(t, metric, 16, 700, 3)
			check := func(stage string, ref *refHNSW) {
				t.Helper()
				v := s.Snapshot()
				qr := make([]float64, v.dim)
				for _, k := range []int{1, 2, 10} {
					for qi, q := range queries {
						got, err := v.SearchHNSW(q, k)
						if err != nil {
							t.Fatal(err)
						}
						metric.toRow(qr, q)
						want := ref.search(qr, k, v.dead)
						slices.SortFunc(got, byDistThenID)
						slices.SortFunc(want, byDistThenID)
						if !slices.Equal(got, want) {
							t.Fatalf("%s/%v %s k=%d query %d:\n got %v\nwant %v", tc.name, metric, stage, k, qi, got, want)
						}
					}
				}
			}
			reference := func() *refHNSW {
				ref := newRefHNSW(m, efC, seed)
				ref.r = s.cur.rows
				for i := 0; i < ref.r.n; i++ {
					ref.insert(i)
				}
				return ref
			}

			s.BuildHNSW(m, efC, seed)
			ref := reference()
			check("built", ref)

			var doomed []int
			for id := 0; id < s.cur.n; id += 3 {
				doomed = append(doomed, id)
			}
			if err := s.DeleteMany(doomed); err != nil {
				t.Fatal(err)
			}
			check("tombstoned", ref)

			for _, q := range queries[:20] {
				id, err := s.Add(q)
				if err != nil {
					t.Fatal(err)
				}
				ref.r = s.cur.rows
				ref.insert(id)
			}
			check("grown", ref)

			s.BuildHNSW(m, efC, seed)
			check("rebuilt", reference())
		}
	}
}

// TestDeleteManyPublishesOnce: a batch of tombstones costs one view, not
// one per ID, and a bad ID anywhere in the batch leaves the store as it
// was.
func TestDeleteManyPublishesOnce(t *testing.T) {
	s, _ := uniformStore(t, L2, 4, 500, 1)
	s.BuildHNSW(8, 32, 1)
	ids := make([]int, 0, 250)
	for id := 0; id < 500; id += 2 {
		ids = append(ids, id)
	}
	before := s.publishes
	if err := s.DeleteMany(ids); err != nil {
		t.Fatal(err)
	}
	if got := s.publishes - before; got != 1 {
		t.Errorf("DeleteMany of %d ids published %d views, want 1", len(ids), got)
	}
	if s.Len() != 250 || s.Snapshot().Len() != 250 {
		t.Errorf("Len after DeleteMany = %d (view %d), want 250", s.Len(), s.Snapshot().Len())
	}
	for _, bad := range [][]int{{1, 0}, {1, 1}, {3, 500}, {-1}} {
		if err := s.DeleteMany(bad); err == nil {
			t.Errorf("DeleteMany(%v) should fail", bad)
		}
	}
	if s.Len() != 250 {
		t.Errorf("a failed batch changed Len to %d", s.Len())
	}
	if hits, _ := s.Search([]float64{0, 0, 0, 0}, 500); len(hits) != 250 {
		t.Errorf("exact search returns %d live vectors, want 250", len(hits))
	}
}

// TestSearchCostIsSublinear is the index's gate: what HNSW buys is that a
// search evaluates few distances and that the number barely grows with
// the store. Distance evaluations per search are a count, so the gate is
// deterministic and runs everywhere, the race detector included.
func TestSearchCostIsSublinear(t *testing.T) {
	const k = 2
	evalsPerSearch := func(n int) float64 {
		s, queries := clusteredStore(t, Cosine, 16, n, 17)
		s.BuildHNSW(8, 32, 7)
		v := s.Snapshot()
		sc := getScratch(v.n)
		defer putScratch(sc)
		evals, found, wanted := 0, 0, 0
		for _, q := range queries {
			sc.evals = 0
			approx := v.searchHNSW(sc, q, k)
			evals += sc.evals
			exact, err := v.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			wanted += len(exact)
			for _, a := range approx {
				if slices.ContainsFunc(exact, func(e Hit) bool { return e.ID == a.ID }) {
					found++
				}
			}
		}
		if recall := float64(found) / float64(wanted); recall < 0.85 {
			t.Errorf("recall@%d over %d vectors = %.3f, want >= 0.85", k, n, recall)
		}
		return float64(evals) / float64(len(queries))
	}
	small, large := evalsPerSearch(2000), evalsPerSearch(8000)
	t.Logf("distance evaluations per search: %.0f at 2000 vectors, %.0f at 8000", small, large)
	if large >= 2*small {
		t.Errorf("4x the vectors cost %.2fx the distance evaluations (%.0f -> %.0f), want < 2x", large/small, small, large)
	}
	if small >= 2000/2 {
		t.Errorf("a search over 2000 vectors evaluates %.0f distances: no better than a scan", small)
	}
}

// TestStampWrapAround: when a scratch's epoch wraps, stamps left by beams
// four billion searches ago must not read as visited.
func TestStampWrapAround(t *testing.T) {
	s, queries := clusteredStore(t, Cosine, 8, 400, 2)
	s.BuildHNSW(8, 32, 2)
	v := s.Snapshot()
	fresh := getScratch(v.n)
	defer putScratch(fresh)
	old := &scratch{stamp: make([]uint32, v.n), epoch: math.MaxUint32 - 3}
	for i := range old.stamp {
		old.stamp[i] = uint32(i % 5) // stale stamps that collide with epochs 1..4 after the wrap
	}
	for round := 0; round < 4; round++ {
		for qi, q := range queries {
			want := v.searchHNSW(fresh, q, 3)
			got := v.searchHNSW(old, q, 3)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d query %d (epoch %d): got %v, want %v", round, qi, old.epoch, got, want)
			}
		}
	}
	if old.epoch > 1<<20 {
		t.Fatalf("epoch %d never wrapped", old.epoch)
	}
}

func TestSearchHNSWAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	s, queries := clusteredStore(t, Cosine, 16, 2000, 7)
	s.BuildHNSW(8, 32, 7)
	v := s.Snapshot()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := v.SearchHNSW(queries[i%len(queries)], 2); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 4 {
		t.Errorf("View.SearchHNSW allocates %.1f times per search, want <= 4", allocs)
	}
}

// The knowledge base's serving shape: 2000 16-dim vectors in near-duplicate
// clusters, M 8, efConstruction 32, k 2.
func BenchmarkSearchHNSW(b *testing.B) {
	s, queries := clusteredStore(b, Cosine, 16, 2000, 7)
	s.BuildHNSW(8, 32, 7)
	v := s.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.SearchHNSW(queries[i%len(queries)], 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchExact(b *testing.B) {
	s, queries := clusteredStore(b, Cosine, 16, 2000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(queries[i%len(queries)], 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHNSW(b *testing.B) {
	s, _ := clusteredStore(b, Cosine, 16, 2000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BuildHNSW(8, 32, 7)
	}
}

// refHNSW is the map-based index this package had before the array-backed
// one: map[int]bool visited sets, linear scans for the nearest candidate
// and the farthest result, a sort per beam and a map-based merge of the
// two seeds' beams. It is kept as the reference the differential test
// compares the live index against, over the same rows and the same
// kernel, so the two can differ only where the rewrite changed behaviour.
type refHNSW struct {
	r         rows
	m, efCons int
	levelMul  float64
	rng       *rand.Rand
	neighbors []map[int][]int
	entry     int
	maxLevel  int
	size      int
}

type refHit struct {
	idx  int
	dist float64
}

func newRefHNSW(m, efConstruction int, seed int64) *refHNSW {
	if m < 2 {
		m = 8
	}
	if efConstruction < m {
		efConstruction = 4 * m
	}
	return &refHNSW{
		m: m, efCons: efConstruction,
		levelMul: 1.0 / math.Log(float64(m)),
		rng:      rand.New(rand.NewSource(seed)),
		entry:    -1,
	}
}

func (h *refHNSW) dist(q []float64, idx int) float64 {
	return h.r.metric.rowDistance(q, h.r.row(idx))
}

func (h *refHNSW) insert(idx int) {
	level := int(-math.Log(math.Max(h.rng.Float64(), 1e-12)) * h.levelMul)
	for len(h.neighbors) <= level {
		h.neighbors = append(h.neighbors, map[int][]int{})
	}
	if h.entry < 0 {
		h.entry = idx
		h.maxLevel = level
		h.size++
		return
	}
	q := h.r.row(idx)
	cur := h.entry
	for l := h.maxLevel; l > level; l-- {
		cur = h.greedy(q, cur, l)
	}
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := h.searchLayer(q, cur, h.efCons, l)
		var sel []int
		for _, c := range cands {
			sel = append(sel, c.idx)
			if len(sel) == h.m {
				break
			}
		}
		h.neighbors[l][idx] = sel
		for _, nb := range sel {
			nbrs := append(append([]int{}, h.neighbors[l][nb]...), idx)
			if len(nbrs) > h.m*3 {
				nbrs = h.prune(h.r.row(nb), nbrs, h.m*2)
			}
			h.neighbors[l][nb] = nbrs
		}
		cur = cands[0].idx
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = idx
	}
	h.size++
}

func (h *refHNSW) greedy(q []float64, start, level int) int {
	cur := start
	curD := h.dist(q, cur)
	for {
		improved := false
		for _, nb := range h.neighbors[level][cur] {
			if d := h.dist(q, nb); d < curD {
				cur, curD = nb, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

func (h *refHNSW) searchLayer(q []float64, entry, ef, level int) []refHit {
	visited := map[int]bool{entry: true}
	entryHit := refHit{idx: entry, dist: h.dist(q, entry)}
	candidates := []refHit{entryHit}
	results := []refHit{entryHit}
	worstOf := func() int {
		worst := 0
		for i := 1; i < len(results); i++ {
			if results[i].dist > results[worst].dist {
				worst = i
			}
		}
		return worst
	}
	for len(candidates) > 0 {
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].dist < candidates[best].dist {
				best = i
			}
		}
		c := candidates[best]
		candidates = append(candidates[:best], candidates[best+1:]...)
		if len(results) >= ef && c.dist > results[worstOf()].dist {
			break
		}
		for _, nb := range h.neighbors[level][c.idx] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := h.dist(q, nb)
			if len(results) < ef {
				results = append(results, refHit{nb, d})
				candidates = append(candidates, refHit{nb, d})
			} else if worst := worstOf(); d < results[worst].dist {
				results[worst] = refHit{nb, d}
				candidates = append(candidates, refHit{nb, d})
			}
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].dist < results[j].dist })
	return results
}

func (h *refHNSW) prune(vec []float64, nbs []int, m int) []int {
	hits := make([]refHit, len(nbs))
	for i, nb := range nbs {
		hits[i] = refHit{nb, h.dist(vec, nb)}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].dist < hits[j].dist })
	if len(hits) > m {
		hits = hits[:m]
	}
	out := make([]int, len(hits))
	for i, ht := range hits {
		out[i] = ht.idx
	}
	return out
}

// search is the old hnswIndex.search followed by the old View.SearchHNSW
// filter: the merged beam, tombstones dropped, cut to k.
func (h *refHNSW) search(q []float64, k int, dead bitset) []Hit {
	if h.entry < 0 {
		return nil
	}
	cur := h.entry
	for l := h.maxLevel; l > 0; l-- {
		cur = h.greedy(q, cur, l)
	}
	ef := k * 10
	if ef < 40 {
		ef = 40
	}
	res := h.searchLayer(q, cur, ef, 0)
	if h.size > 1 && cur != 0 {
		seen := map[int]bool{}
		var merged []refHit
		for _, c := range append(res, h.searchLayer(q, 0, ef, 0)...) {
			if !seen[c.idx] {
				seen[c.idx] = true
				merged = append(merged, c)
			}
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].dist < merged[j].dist })
		if len(merged) > ef {
			merged = merged[:ef]
		}
		res = merged
	}
	var out []Hit
	for _, c := range res {
		if len(out) == k {
			break
		}
		if !dead.has(c.idx) {
			out = append(out, Hit{ID: c.idx, Distance: c.dist})
		}
	}
	return out
}
