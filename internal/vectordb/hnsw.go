package vectordb

import (
	"cmp"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
)

// cand is a node with its distance to the query of the search at hand.
type cand struct {
	idx  int32
	dist float64
}

// minHeap is a binary heap of candidates, smallest dist on top. The result
// set of a beam is the same heap over negated distances, which puts the
// farthest result on top.
type minHeap []cand

func (h *minHeap) push(c cand) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= c.dist {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = c
}

// pop removes and returns the top.
func (h *minHeap) pop() cand {
	s := *h
	top, last := s[0], s[len(s)-1]
	*h = s[:len(s)-1]
	if len(s) > 1 {
		h.replaceTop(last)
	}
	return top
}

// replaceTop overwrites the top with c and restores the heap order.
func (h *minHeap) replaceTop(c cand) {
	s := *h
	i := 0
	for {
		kid := 2*i + 1
		if kid >= len(s) {
			break
		}
		if r := kid + 1; r < len(s) && s[r].dist < s[kid].dist {
			kid = r
		}
		if c.dist <= s[kid].dist {
			break
		}
		s[i] = s[kid]
		i = kid
	}
	s[i] = c
}

// scratch is the working memory of one search or insert: borrowed from
// scratchPool for the call, never shared, nothing in it kept afterwards.
type scratch struct {
	q     []float64 // the query in row form
	stamp []uint32  // stamp[i] == epoch: node i was reached in the current beam
	epoch uint32
	cands minHeap // the beam's frontier, nearest on top
	res   minHeap // the beam's results under negated distances, farthest on top
	beam  []cand  // a finished beam, nearest first
	alt   []cand  // the second seed's beam; the distances of a prune
	evals int     // distance evaluations since the scratch was borrowed; read by tests
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch borrows a scratch whose stamps cover n nodes.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.stamp) < n {
		sc.stamp, sc.epoch = make([]uint32, n+n/4), 0 // headroom: the next Adds do not grow it again
	}
	sc.evals = 0
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// queryRow brings q into row form, once per search.
func (sc *scratch) queryRow(m Metric, q []float64) []float64 {
	sc.q = slices.Grow(sc.q[:0], len(q))[:len(q)]
	m.toRow(sc.q, q)
	return sc.q
}

// nextBeam starts a fresh visited set: a stamp equals the new epoch for no
// node. When the epoch wraps around, stamps of four billion beams ago
// would read as visited, so they are cleared.
func (sc *scratch) nextBeam() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
}

// visit marks node i and reports whether this beam reached it for the
// first time.
func (sc *scratch) visit(i int32) bool {
	if sc.stamp[i] == sc.epoch {
		return false
	}
	sc.stamp[i] = sc.epoch
	return true
}

func (sc *scratch) dist(r rows, q []float64, i int32) float64 {
	sc.evals++
	return r.metric.rowDistance(q, r.row(int(i)))
}

// hnswIndex is a hierarchical navigable small-world graph over the rows
// (node == row index == ID). Level 0, where every node lives and every
// search spends its time, is a slice of neighbour lists indexed by node;
// the levels above hold about 1/m of the level below each and are maps.
// A published index is immutable; a writer works on a clone. The
// copy-on-write contract: the adjacency tables are cloned per write, and
// the neighbour lists inside them are treated as immutable — every update
// builds a fresh list (see insert/prune) so a clone can share them with
// the index it was cloned from.
type hnswIndex struct {
	m        int // max neighbours per layer
	efCons   int
	levelMul float64
	rng      *rand.Rand          // shared across clones; only ever used by the (mutex-serialized) writer
	base     [][]int32           // level 0: node → neighbours
	upper    []map[int32][]int32 // upper[l-1] is level l: node → neighbours
	entry    int32               // -1 while empty
	maxLevel int
}

func newHNSW(m, efConstruction int, seed int64) *hnswIndex {
	if m < 2 {
		m = 8
	}
	if efConstruction < m {
		efConstruction = 4 * m
	}
	return &hnswIndex{
		m: m, efCons: efConstruction,
		levelMul: 1.0 / math.Log(float64(m)),
		rng:      rand.New(rand.NewSource(seed)),
		entry:    -1,
	}
}

// clone copies the adjacency tables for a copy-on-write insert: one copy
// of level 0's slice headers (with room for the node about to be added)
// and of the small upper maps, sharing the (immutable) neighbour lists.
func (h *hnswIndex) clone() *hnswIndex {
	cp := *h
	cp.base = append(make([][]int32, 0, len(h.base)+1), h.base...)
	cp.upper = make([]map[int32][]int32, len(h.upper))
	for l, mp := range h.upper {
		cp.upper[l] = maps.Clone(mp)
	}
	return &cp
}

func (h *hnswIndex) nbrs(level int, idx int32) []int32 {
	if level == 0 {
		return h.base[idx]
	}
	return h.upper[level-1][idx]
}

func (h *hnswIndex) setNbrs(level int, idx int32, nbrs []int32) {
	if level == 0 {
		h.base[idx] = nbrs
	} else {
		h.upper[level-1][idx] = nbrs
	}
}

func (h *hnswIndex) randomLevel() int {
	return int(-math.Log(math.Max(h.rng.Float64(), 1e-12)) * h.levelMul)
}

// insert links row id into the graph. Rows are inserted in ID order.
func (h *hnswIndex) insert(r rows, sc *scratch, id int) {
	if id != len(h.base) {
		panic("vectordb: HNSW insert out of ID order")
	}
	idx := int32(id)
	level := h.randomLevel()
	for len(h.upper) < level {
		h.upper = append(h.upper, map[int32][]int32{})
	}
	h.base = append(h.base, nil)
	if h.entry < 0 {
		h.entry, h.maxLevel = idx, level
		return
	}
	q := r.row(id)
	cur := h.entry
	// greedy descent on upper layers
	for l := h.maxLevel; l > level; l-- {
		cur = h.greedy(r, sc, q, cur, l)
	}
	// connect on layers min(level, maxLevel) .. 0
	for l := min(level, h.maxLevel); l >= 0; l-- {
		sc.beam = h.searchLayer(r, sc, sc.beam, q, cur, h.efCons, l)
		sel := sc.beam[:min(h.m, len(sc.beam))]
		own := make([]int32, len(sel))
		for i, nb := range sel {
			own[i] = nb.idx
			// copy-append: the old list may be shared with a published view
			old := h.nbrs(l, nb.idx)
			nbrs := make([]int32, len(old)+1)
			copy(nbrs, old)
			nbrs[len(old)] = idx
			if len(nbrs) > h.m*3 {
				nbrs = h.prune(r, sc, nb.idx, nbrs, h.m*2)
			}
			h.setNbrs(l, nb.idx, nbrs)
		}
		h.setNbrs(l, idx, own)
		cur = sc.beam[0].idx
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = idx
	}
}

func (h *hnswIndex) greedy(r rows, sc *scratch, q []float64, start int32, level int) int32 {
	cur := start
	curD := sc.dist(r, q, cur)
	for {
		improved := false
		for _, nb := range h.nbrs(level, cur) {
			if d := sc.dist(r, q, nb); d < curD {
				cur, curD = nb, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is best-first search with a result set bounded to ef. It
// returns the beam nearest first, in dst's memory; the entry point is
// always in it.
func (h *hnswIndex) searchLayer(r rows, sc *scratch, dst []cand, q []float64, entry int32, ef, level int) []cand {
	sc.nextBeam()
	sc.visit(entry)
	d := sc.dist(r, q, entry)
	sc.cands = append(sc.cands[:0], cand{entry, d})
	sc.res = append(sc.res[:0], cand{entry, -d})
	for len(sc.cands) > 0 {
		c := sc.cands.pop()
		if len(sc.res) >= ef && c.dist > -sc.res[0].dist {
			break
		}
		for _, nb := range h.nbrs(level, c.idx) {
			if !sc.visit(nb) {
				continue
			}
			d := sc.dist(r, q, nb)
			if len(sc.res) < ef {
				sc.res.push(cand{nb, -d})
			} else if d < -sc.res[0].dist {
				sc.res.replaceTop(cand{nb, -d})
			} else {
				continue
			}
			sc.cands.push(cand{nb, d})
		}
	}
	// the results leave the heap farthest first
	dst = slices.Grow(dst[:0], len(sc.res))[:len(sc.res)]
	for i := len(dst) - 1; i >= 0; i-- {
		c := sc.res.pop()
		dst[i] = cand{c.idx, -c.dist}
	}
	return dst
}

func byDist(a, b cand) int { return cmp.Compare(a.dist, b.dist) }

// prune cuts node's neighbour list down to its m nearest.
func (h *hnswIndex) prune(r rows, sc *scratch, node int32, nbs []int32, m int) []int32 {
	vec := r.row(int(node))
	sc.alt = sc.alt[:0]
	for _, nb := range nbs {
		sc.alt = append(sc.alt, cand{nb, sc.dist(r, vec, nb)})
	}
	slices.SortFunc(sc.alt, byDist)
	out := make([]int32, min(m, len(sc.alt)))
	for i := range out {
		out[i] = sc.alt[i].idx
	}
	return out
}

// search returns the level-0 beam for q (in row form), nearest first. It
// is the full beam, up to max(10k, 40) wide, not just k: callers filter
// tombstones before truncating.
func (h *hnswIndex) search(r rows, sc *scratch, q []float64, k int) []cand {
	if h.entry < 0 {
		return nil
	}
	cur := h.entry
	for l := h.maxLevel; l > 0; l-- {
		cur = h.greedy(r, sc, q, cur, l)
	}
	ef := max(10*k, 40)
	sc.beam = h.searchLayer(r, sc, sc.beam, q, cur, ef, 0)
	// second deterministic seed guards against descending into the wrong
	// cluster on multi-modal data: an independent beam from node 0, merged
	if len(h.base) > 1 && cur != 0 {
		sc.alt = h.searchLayer(r, sc, sc.alt, q, 0, ef, 0)
		sc.nextBeam()
		for _, c := range sc.beam {
			sc.visit(c.idx)
		}
		for _, c := range sc.alt {
			if sc.visit(c.idx) {
				sc.beam = append(sc.beam, c)
			}
		}
		slices.SortFunc(sc.beam, byDist)
		sc.beam = sc.beam[:min(ef, len(sc.beam))]
	}
	return sc.beam
}
