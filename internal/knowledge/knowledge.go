// Package knowledge implements the RAG knowledge base (§IV): a vector
// store keyed by 16-dim plan-pair encodings whose values are
// <plan details, execution result, expert explanation> tuples. It
// supports expert-correction write-back (wrong LLM outputs corrected and
// stored, marked Corrected, for future retrieval — §III-B), staleness
// expiry, and gob persistence. Entries are built by explain.NewEntry.
//
// Concurrency model: writers (Add/ExpireOlderThan) serialize on
// the base's mutex. Reads take a read lock — except TopK once EnableHNSW
// has been called: the base then maintains an atomically-published
// copy-on-write snapshot pairing the vector store's immutable view with
// a matching entry map, so retrieval under concurrent serving is a
// wait-free read through the HNSW index, never the mutex-guarded linear
// scan. Entries are immutable after publication; a snapshot's vector
// hits and entry lookups are mutually consistent by construction. Every
// write bumps Version once it is visible, so a reader can keep what it
// derived from TopK for as long as Version stays what it read first.
package knowledge

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"htapxplain/internal/expert"
	"htapxplain/internal/plan"
	"htapxplain/internal/vectordb"
)

// Entry is one knowledge-base record.
type Entry struct {
	ID       int
	SQL      string
	Encoding []float64 // 16-dim plan-pair encoding from the smart router
	// TPPlanJSON / APPlanJSON are the stored plan details (paper: "plan
	// details includes the actual execution plans for both engines").
	TPPlanJSON string
	APPlanJSON string
	// Winner is the execution result: which engine ran faster.
	Winner plan.Engine
	// Speedup is how many times faster the winner was.
	Speedup float64
	// Explanation is the expert-curated explanation text.
	Explanation string
	// Factors are the ground-truth factors behind the explanation,
	// kept so curation tooling can reason about KB coverage.
	Factors []expert.Factor
	// Seq is a logical insertion timestamp for staleness expiry.
	Seq int64
	// Corrected marks entries written back by expert correction.
	Corrected bool
}

// kbView is the published snapshot: the vector store's immutable view
// plus the entry map as of the same write. Published whole so TopK's
// vector hits always resolve against entries from the same moment.
type kbView struct {
	vec     *vectordb.View
	entries map[int]*Entry
}

// Base is the knowledge base. Safe for concurrent use.
type Base struct {
	mu      sync.RWMutex
	store   *vectordb.Store
	entries map[int]*Entry
	seq     int64

	view     atomic.Pointer[kbView] // nil until EnableHNSW
	version  atomic.Uint64          // see Version
	indexed  bool                   // guarded by mu; true once EnableHNSW ran
	hnswM    int
	hnswEf   int
	hnswSeed int64
}

// New creates an empty knowledge base for encodings of the given
// dimension.
func New(dim int) *Base {
	return &Base{
		store:   vectordb.New(dim, vectordb.Cosine),
		entries: make(map[int]*Entry),
	}
}

// Len returns the number of live entries.
func (b *Base) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.entries)
}

// CurSeq returns the highest sequence number assigned so far; an entry
// added next gets a larger one. ExpireOlderThan(CurSeq()) therefore
// expires everything currently present — the maintenance loop's
// refresh-all floor.
func (b *Base) CurSeq() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.seq
}

// Version counts the changes to what TopK can return: every Add,
// ExpireOlderThan that expires something, RebuildIndex and EnableHNSW bumps
// it, after the change is visible to TopK. So a TopK that starts after
// Version returned v searches the state as of v or a later one — the
// order a caller keeping TopK's answer under v relies on.
func (b *Base) Version() uint64 { return b.version.Load() }

// Add inserts an entry and returns its assigned ID.
func (b *Base) Add(e Entry) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id, err := b.store.Add(e.Encoding)
	if err != nil {
		return 0, fmt.Errorf("knowledge: %w", err)
	}
	b.seq++
	e.ID = id
	e.Seq = b.seq
	b.entries[id] = &e
	b.publishLocked()
	return id, nil
}

// Get returns the entry by ID.
func (b *Base) Get(id int) (*Entry, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.entries[id]
	return e, ok
}

// Hit pairs an entry with its retrieval distance.
type Hit struct {
	Entry    *Entry
	Distance float64
}

// TopK retrieves the k most similar entries to the query encoding. When
// the HNSW index is enabled (EnableHNSW), retrieval goes through the
// copy-on-write snapshot — a lock-free approximate search, the serving
// path. Otherwise search is the exact mutex-guarded linear scan —
// matching the paper's setup where the KB is small and search is
// near-instant.
func (b *Base) TopK(encoding []float64, k int) ([]Hit, error) {
	if v := b.view.Load(); v != nil {
		hits, err := v.vec.SearchHNSW(encoding, k)
		if err != nil {
			return nil, fmt.Errorf("knowledge: %w", err)
		}
		if len(hits) == 0 && v.vec.Len() > 0 {
			// the graph's whole beam was tombstoned (a mass expiry before
			// the next rebuild): fall back to an exact scan of the same
			// snapshot so a non-empty base always yields grounding
			if hits, err = v.vec.Search(encoding, k); err != nil {
				return nil, fmt.Errorf("knowledge: %w", err)
			}
		}
		out := make([]Hit, 0, len(hits))
		for _, h := range hits {
			if e, ok := v.entries[h.ID]; ok {
				out = append(out, Hit{Entry: e, Distance: h.Distance})
			}
		}
		return out, nil
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	hits, err := b.store.Search(encoding, k)
	if err != nil {
		return nil, fmt.Errorf("knowledge: %w", err)
	}
	out := make([]Hit, 0, len(hits))
	for _, h := range hits {
		if e, ok := b.entries[h.ID]; ok {
			out = append(out, Hit{Entry: e, Distance: h.Distance})
		}
	}
	return out, nil
}

// EnableHNSW builds the HNSW index and starts publishing copy-on-write
// snapshots: every subsequent TopK is lock-free. Bulk-load entries
// before enabling when possible — each post-enable Add clones the
// snapshot, which is O(entries).
func (b *Base) EnableHNSW(m, efConstruction int, seed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hnswM, b.hnswEf, b.hnswSeed = m, efConstruction, seed
	b.store.BuildHNSW(m, efConstruction, seed)
	b.indexed = true
	b.publishLocked()
}

// RebuildIndex reconstructs the HNSW graph from the current live state
// and publishes a fresh snapshot. The maintenance loop calls it after
// expiry churn so tombstoned vectors stop shaping the graph topology.
// No-op before EnableHNSW.
func (b *Base) RebuildIndex() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.indexed {
		return
	}
	b.store.BuildHNSW(b.hnswM, b.hnswEf, b.hnswSeed)
	b.publishLocked()
}

// publishLocked makes a change visible: it publishes the current state as
// an immutable snapshot once EnableHNSW has run, then bumps Version.
// Caller holds b.mu.
func (b *Base) publishLocked() {
	if b.indexed {
		ents := make(map[int]*Entry, len(b.entries))
		for id, e := range b.entries {
			ents[id] = e
		}
		b.view.Store(&kbView{vec: b.store.Snapshot(), entries: ents})
	}
	b.version.Add(1)
}

// ExpireOlderThan tombstones entries with Seq <= maxSeq, the
// "expiring stale queries" mechanism the paper lists as future work.
// It returns the number of expired entries.
func (b *Base) ExpireOlderThan(maxSeq int64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ids []int
	for id, e := range b.entries {
		if e.Seq <= maxSeq {
			ids = append(ids, id)
		}
	}
	// one batch: the store clones its tombstones and publishes once, not
	// once per entry. Every id is a live entry's, so the batch cannot fail.
	if len(ids) == 0 || b.store.DeleteMany(ids) != nil {
		return 0
	}
	for _, id := range ids {
		delete(b.entries, id)
	}
	b.publishLocked()
	return len(ids)
}

// Entries returns all live entries ordered by ID (deterministic).
func (b *Base) Entries() []*Entry {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ids := make([]int, 0, len(b.entries))
	for id := range b.entries {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Entry, len(ids))
	for i, id := range ids {
		out[i] = b.entries[id]
	}
	return out
}

// FactorCoverage reports how many live entries assert each factor —
// curation tooling uses it to keep the small KB representative.
func (b *Base) FactorCoverage() map[expert.Factor]int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := map[expert.Factor]int{}
	for _, e := range b.entries {
		for _, f := range e.Factors {
			out[f]++
		}
	}
	return out
}

// ---------------------------------------------------------- persistence

type snapshot struct {
	Dim     int
	Entries []Entry
}

// Save serializes the knowledge base.
func (b *Base) Save(w io.Writer) error {
	s := snapshot{Dim: b.store.Dim()}
	for _, e := range b.Entries() {
		s.Entries = append(s.Entries, *e)
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load deserializes a knowledge base previously written by Save. The
// HNSW index is not part of the snapshot; call EnableHNSW afterwards to
// resume lock-free serving retrieval.
func Load(r io.Reader) (*Base, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("knowledge: decoding: %w", err)
	}
	b := New(s.Dim)
	for _, e := range s.Entries {
		if _, err := b.Add(e); err != nil {
			return nil, err
		}
	}
	return b, nil
}
