// Package vectordb implements the RAG knowledge base's vector store: a
// key-value store whose keys are plan-pair embeddings. Search supports
// exact (linear) k-nearest-neighbour and an HNSW index (Malkov &
// Yashunin, cited by the paper for KB scaling). Distances are cosine or
// Euclidean. A vector's ID is its insertion index; the knowledge package
// maps IDs to full entries.
//
// Representation: every vector is one row of a single contiguous
// []float64, and under Cosine a row is unit-normalised when it is added
// (a zero vector stays zero, which puts it at distance 1 from everything).
// No API returns a stored vector, so only the normalised form is kept.
// Tombstones are a bitset indexed by ID. The HNSW graph (hnsw.go) keeps
// its level-0 adjacency as a slice indexed by node.
//
// One kernel: Metric.rowDistance — 1 − dot over unit rows, Σ(a−b)² for L2
// — is the only distance formula. Graph construction, graph search and
// the exact scan all call it, on a query that Metric.toRow brought into
// row form once per search.
//
// Scratch ownership: a search borrows one scratch (the query row, the
// visited stamps, both heaps and the beam buffers) from a sync.Pool for
// its duration and returns it; no two searches ever share one, and the
// writer borrows its own for an insert. Nothing in a scratch outlives the
// call that borrowed it.
//
// Concurrency model: writers (Add/Delete/DeleteMany/BuildHNSW) serialize
// on the store's mutex and never mutate anything a reader can reach: rows
// are append-only (a reader's shorter length never reaches a newer row),
// the tombstone bitset and the adjacency tables are cloned before a write
// changes them, and neighbour lists are replaced, never edited. The exact
// path copies the current state under a read lock and scans outside it.
// Once BuildHNSW has been called every write also publishes the state as
// an immutable View through an atomic pointer, so index searches are
// wait-free reads with no lock at all.
package vectordb

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Metric selects the distance function.
type Metric int

const (
	// Cosine distance: 1 - cosine similarity.
	Cosine Metric = iota
	// L2 is squared Euclidean distance.
	L2
)

func (m Metric) String() string {
	if m == Cosine {
		return "cosine"
	}
	return "l2"
}

// toRow writes src into dst in the form rows are stored in: scaled to
// unit length under Cosine (a zero vector stays zero), unchanged under L2.
func (m Metric) toRow(dst, src []float64) {
	scale := 1.0
	if m == Cosine {
		var nn float64
		for _, v := range src {
			nn += v * v
		}
		if nn > 0 {
			scale = 1 / math.Sqrt(nn)
		}
	}
	for i, v := range src {
		dst[i] = v * scale
	}
}

// rowDistance is the distance kernel, over two vectors in row form.
// Rounding can leave the dot of two equal unit rows a hair above 1; a
// distance is never negative.
func (m Metric) rowDistance(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	if m == Cosine {
		for i, v := range a {
			s += v * b[i]
		}
		if s > 1 {
			return 0
		}
		return 1 - s
	}
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Distance computes the metric between two vectors.
func (m Metric) Distance(a, b []float64) float64 {
	ra, rb := make([]float64, len(a)), make([]float64, len(b))
	m.toRow(ra, a)
	m.toRow(rb, b)
	return m.rowDistance(ra, rb)
}

// Hit is one search result.
type Hit struct {
	ID       int
	Distance float64
}

// rows is the vector table: n rows of dim floats, contiguous, in row form.
// n is kept beside data because dim may be 0.
type rows struct {
	dim, n int
	metric Metric
	data   []float64
}

func (r rows) row(i int) []float64 { return r.data[i*r.dim : (i+1)*r.dim] }

// bitset is the tombstone set, indexed by ID. A published one is never
// mutated: a writer sets bits in a clone.
type bitset []uint64

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// clone returns a copy with room for IDs below n.
func (b bitset) clone(n int) bitset {
	nb := make(bitset, max(len(b), (n+63)>>6))
	copy(nb, b)
	return nb
}

// Store is the vector store. It is safe for concurrent use.
type Store struct {
	mu  sync.RWMutex
	cur View // the authoritative state; cur.hnsw is nil until BuildHNSW

	view      atomic.Pointer[View] // nil until BuildHNSW
	publishes int                  // views published so far; read by tests
}

// New creates a store for vectors of the given dimension.
func New(dim int, metric Metric) *Store {
	return &Store{cur: View{rows: rows{dim: dim, metric: metric}}}
}

// Dim returns the vector dimension.
func (s *Store) Dim() int { return s.cur.dim }

// Len returns the number of live vectors.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.Len()
}

// Add inserts a vector and returns its ID.
func (s *Store) Add(vec []float64) (int, error) {
	if len(vec) != s.cur.dim {
		return 0, fmt.Errorf("vectordb: dimension mismatch: got %d, want %d", len(vec), s.cur.dim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.cur.n
	s.cur.data = append(s.cur.data, vec...)
	s.cur.n++
	s.cur.metric.toRow(s.cur.row(id), vec)
	if s.cur.hnsw != nil {
		// copy-on-write index maintenance: insert into a clone of the
		// adjacency tables against the grown rows, publish. Concurrent
		// searches keep using the old view untouched.
		h := s.cur.hnsw.clone()
		sc := getScratch(id + 1)
		h.insert(s.cur.rows, sc, id)
		putScratch(sc)
		s.cur.hnsw = h
		s.publishLocked()
	}
	return id, nil
}

// Delete tombstones an ID (used for knowledge expiry).
func (s *Store) Delete(id int) error { return s.DeleteMany([]int{id}) }

// DeleteMany tombstones a batch of IDs with one clone of the tombstone
// set and one published view. It is all or nothing: an unknown, repeated
// or already deleted ID fails the batch.
func (s *Store) DeleteMany(ids []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dead := s.cur.dead.clone(s.cur.n)
	for _, id := range ids {
		if id < 0 || id >= s.cur.n || dead.has(id) {
			return fmt.Errorf("vectordb: no such id %d", id)
		}
		dead.set(id)
	}
	s.cur.dead, s.cur.nDead = dead, s.cur.nDead+len(ids)
	if s.cur.hnsw != nil {
		s.publishLocked()
	}
	return nil
}

// Search returns the k nearest live vectors to q (exact linear scan).
func (s *Store) Search(q []float64, k int) ([]Hit, error) {
	s.mu.RLock()
	v := s.cur
	s.mu.RUnlock()
	return v.Search(q, k)
}

// SearchHNSW returns approximate k nearest neighbours through the HNSW
// index (BuildHNSW must have been called). The search runs against the
// current immutable view — no lock is taken.
func (s *Store) SearchHNSW(q []float64, k int) ([]Hit, error) {
	v := s.view.Load()
	if v == nil {
		return nil, fmt.Errorf("vectordb: HNSW index not built")
	}
	return v.SearchHNSW(q, k)
}

// BuildHNSW constructs the HNSW graph over current contents and publishes
// the first view; subsequent Adds are inserted incrementally (each
// publishing a fresh view). Calling it again rebuilds the graph from
// scratch, which drops tombstoned vectors' influence on the topology.
func (s *Store) BuildHNSW(m, efConstruction int, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := newHNSW(m, efConstruction, seed)
	sc := getScratch(s.cur.n)
	for i := 0; i < s.cur.n; i++ {
		h.insert(s.cur.rows, sc, i)
	}
	putScratch(sc)
	s.cur.hnsw = h
	s.publishLocked()
}

// Snapshot returns the current immutable view, or nil when BuildHNSW has
// not been called. Callers may search it lock-free for as long as they
// hold it; it never changes.
func (s *Store) Snapshot() *View {
	return s.view.Load()
}

// publishLocked publishes the current state. Caller holds s.mu.
func (s *Store) publishLocked() {
	v := s.cur
	s.view.Store(&v)
	s.publishes++
}

// ---------------------------------------------------------------- views

// View is an immutable point-in-time snapshot of the store: its rows,
// tombstones and HNSW graph. All methods are safe for unlimited
// concurrent use with no synchronization — nothing a view references is
// ever mutated after publication.
type View struct {
	rows
	dead  bitset
	nDead int
	hnsw  *hnswIndex
}

// Len returns the number of live vectors in the view.
func (v *View) Len() int { return v.n - v.nDead }

// Search returns the k nearest live vectors to q (exact linear scan over
// the snapshot), nearest first, ties by ascending ID.
func (v *View) Search(q []float64, k int) ([]Hit, error) {
	if len(q) != v.dim {
		return nil, fmt.Errorf("vectordb: dimension mismatch: got %d, want %d", len(q), v.dim)
	}
	sc := getScratch(0)
	defer putScratch(sc)
	qr := sc.queryRow(v.metric, q)
	// a running top-k in ascending (distance, ID) order: rows arrive in ID
	// order and only a strictly nearer one moves an earlier one down
	top := make([]Hit, 0, max(0, min(k, v.Len())))
	if cap(top) == 0 {
		return top, nil
	}
	for i := 0; i < v.n; i++ {
		if v.dead.has(i) {
			continue
		}
		d := v.metric.rowDistance(qr, v.row(i))
		if len(top) < cap(top) {
			top = append(top, Hit{})
		} else if d >= top[len(top)-1].Distance {
			continue
		}
		j := len(top) - 1
		for ; j > 0 && top[j-1].Distance > d; j-- {
			top[j] = top[j-1]
		}
		top[j] = Hit{ID: i, Distance: d}
	}
	return top, nil
}

// SearchHNSW returns approximate k nearest live neighbours through the
// snapshot's HNSW graph. Tombstones are filtered before truncating to k,
// so a burst of expiries (dead nodes still in the graph until the next
// rebuild) shrinks recall gracefully instead of emptying results.
func (v *View) SearchHNSW(q []float64, k int) ([]Hit, error) {
	if len(q) != v.dim {
		return nil, fmt.Errorf("vectordb: dimension mismatch: got %d, want %d", len(q), v.dim)
	}
	sc := getScratch(v.n)
	defer putScratch(sc)
	return v.searchHNSW(sc, q, k), nil
}

// searchHNSW is SearchHNSW over a scratch the caller owns.
func (v *View) searchHNSW(sc *scratch, q []float64, k int) []Hit {
	out := make([]Hit, 0, max(0, k))
	for _, c := range v.hnsw.search(v.rows, sc, sc.queryRow(v.metric, q), k) {
		if len(out) == k {
			break
		}
		if !v.dead.has(int(c.idx)) {
			out = append(out, Hit{ID: int(c.idx), Distance: c.dist})
		}
	}
	return out
}
