package explainsvc

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"htapxplain/internal/explain"
	"htapxplain/internal/gateway"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/llm"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

// TestRetrievalReuse: a template's retrieval — the model's prefill of its
// prompt prefix with it — is built once and reused by every literal vector
// of it, until one of its three invalidators fires —
// a knowledge-base change (an expert correction at the pair's own
// encoding, the expiry of a cited entry), an explainer swap (a request
// served inside a retrain, after the new router is live and before the
// plans are invalidated) or the plan's eviction (a bare InvalidatePlans).
// After each, the next explanation is retrieved afresh and says what the
// new state says.
func TestRetrievalReuse(t *testing.T) {
	sys, r, kb := testEnv(t) // kb is this test's own copy
	g := newGateway(t, sys, 2)
	qs := workload.NewGenerator(21).BatchOf("join2_lineitem_big", 2)
	first, second := qs[0].SQL, qs[1].SQL // two literal vectors of one template
	var (
		svc        *Service
		inRetrain  atomic.Bool
		midKept    *explain.Retrieval
		midLive    *explain.Explainer
		midErr     error
		midPlanned bool
	)
	svc = newService(t, sys, g, r, kb, Config{Seed: 1, OnSwap: func(*treecnn.Router) {
		if !inRetrain.Load() {
			return
		}
		// the new explainer is live; the old one's retrieval is still cached
		midLive = svc.ex.Load()
		var ex *Explanation
		if ex, midErr = svc.Explain(first); midErr == nil {
			midKept, midPlanned = keptFor(t, g, first), !ex.PlanCached
		}
	}})

	explainOf := func(sql string) *Explanation {
		t.Helper()
		ex, err := svc.Explain(sql)
		if err != nil {
			t.Fatalf("Explain(%q): %v", sql, err)
		}
		return ex
	}
	cited := func(ex *Explanation) []int {
		var ids []int
		for _, h := range ex.Retrieved {
			ids = append(ids, h.Entry.ID)
		}
		return ids
	}

	// kept is the retrieval the last explanation composed from, prefill the
	// model's reading of its prompt prefix
	var (
		kept    *explain.Retrieval
		prefill llm.Prefill
	)
	reused := func(what, sql string) *Explanation {
		t.Helper()
		ex := explainOf(sql)
		if now := keptFor(t, g, sql); !ex.PlanCached || ex.EncodeTime != 0 || ex.SearchTime != 0 || now != kept {
			t.Fatalf("%s: plan cached %v, encode %v, search %v, same retrieval %v; want a reuse",
				what, ex.PlanCached, ex.EncodeTime, ex.SearchTime, now == kept)
		}
		if kept.Prefill != prefill || !strings.HasPrefix(ex.Prompt(), kept.Prefix) {
			t.Fatalf("%s: the reuse did not compose from the kept prefill and prefix", what)
		}
		return ex
	}
	recomputed := func(what, sql string) *Explanation {
		t.Helper()
		ex := explainOf(sql)
		now := keptFor(t, g, sql)
		if now == kept || now.Explainer != svc.ex.Load() {
			t.Errorf("after %s: the explanation reused the old retrieval %v, the retrieval is the live explainer's %v",
				what, now == kept, now.Explainer == svc.ex.Load())
		}
		if now.Prefill == nil || now.Prefill == prefill || !strings.HasPrefix(ex.Prompt(), now.Prefix) {
			t.Errorf("after %s: the explanation did not compose from a new prefill of the new prefix", what)
		}
		kept, prefill = now, now.Prefill
		return ex
	}

	a := recomputed("a cold explanation", first)
	if b := reused("a second literal vector of the template", second); len(b.Retrieved) == 0 || !slices.Equal(cited(b), cited(a)) {
		t.Fatalf("the reuse cites %v, the first explanation %v", cited(b), cited(a))
	}

	// an expert correction at the pair's own encoding is the nearest entry
	fix, err := kb.Add(knowledge.Entry{
		SQL: "corrected", Encoding: append([]float64(nil), a.Encoding...), Winner: a.Result.Winner,
		Speedup: 2, Explanation: "expert-corrected explanation", Corrected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := recomputed("kb.Add", first)
	if !slices.Contains(cited(c), fix) {
		t.Errorf("after kb.Add of entry %d at the pair's encoding the explanation cites %v", fix, cited(c))
	}

	// expire every entry older than the correction, the others cited included
	e, _ := kb.Get(fix)
	stale := slices.DeleteFunc(cited(c), func(id int) bool { return id == fix })
	if len(stale) == 0 || kb.ExpireOlderThan(e.Seq-1) == 0 {
		t.Fatalf("nothing to expire beside entry %d: cited %v", fix, cited(c))
	}
	d := recomputed("ExpireOlderThan", second)
	for _, id := range stale {
		if slices.Contains(cited(d), id) {
			t.Errorf("after ExpireOlderThan the explanation still cites expired entry %d", id)
		}
	}

	// a retrain: a request inside it meets the new explainer and the old
	// explainer's retrieval on a still-cached plan
	inRetrain.Store(true)
	if !svc.Retrain() {
		t.Fatal("forced retrain did not run")
	}
	inRetrain.Store(false)
	switch {
	case midErr != nil:
		t.Fatalf("Explain inside the retrain: %v", midErr)
	case midPlanned:
		t.Fatal("inside the retrain the plan was no longer cached, so the explainer check went untested")
	case midKept == kept || midKept.Explainer != midLive || midKept.Prefill == prefill:
		t.Fatal("inside the retrain the explanation reused the old explainer's retrieval")
	}
	if f := recomputed("Retrain", first); f.PlanCached {
		t.Error("after Retrain the plan was still cached")
	}
	reused("a second literal vector after Retrain", second)

	// a bare invalidation drops the plan and the retrieval with it
	g.InvalidatePlans()
	if h := recomputed("InvalidatePlans", second); h.PlanCached {
		t.Error("after InvalidatePlans the plan was still cached")
	}
}

// keptFor is the retrieval kept on the plan-cache entry of sql's template,
// which must be cached.
func keptFor(t *testing.T, g *gateway.Gateway, sql string) *explain.Retrieval {
	t.Helper()
	entry, cached, err := g.PlanPair(sql)
	if err != nil || !cached {
		t.Fatalf("PlanPair(%q): cached %v, err %v", sql, cached, err)
	}
	return entry.Retrieval.Load()
}

// TestWarmExplainAllocs: once one statement of each of the ten core
// templates has been explained, explaining it again reuses its template's
// retrieval — nothing is encoded, searched or rendered before the question
// — and allocates at most a recorded number of times. How much faster
// that is, is the benchmark's to say.
func TestWarmExplainAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 1)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})

	qs := workload.NewGenerator(29).Batch(10) // one per core template
	for _, q := range qs {
		if _, err := svc.Explain(q.SQL); err != nil {
			t.Fatalf("Explain(%q): %v", q.SQL, err)
		}
	}
	pass := func() {
		for _, q := range qs {
			ex, err := svc.Explain(q.SQL)
			if err != nil {
				t.Fatalf("Explain(%q): %v", q.SQL, err)
			}
			if !ex.PlanCached || ex.EncodeTime != 0 || ex.SearchTime != 0 {
				t.Fatalf("warm Explain(%q): plan cached %v, encode %v, search %v; want a reuse",
					q.SQL, ex.PlanCached, ex.EncodeTime, ex.SearchTime)
			}
		}
	}
	pass()
	if raceEnabled {
		return // the count is the allocation half's; the reuse is checked above
	}
	// maxAllocs is what a warm explanation allocates at most, averaged over
	// the ten templates (measured 21.20): admission, the fingerprint, the
	// QUESTION section, the simulated model's reading of it and its answer.
	// The prompt prefix is neither copied nor read again, and the router's
	// pick is the retrieval's.
	const maxAllocs = 22
	allocs := testing.AllocsPerRun(10, pass) / float64(len(qs))
	t.Logf("a warm explanation allocates %.2f times", allocs)
	if allocs > maxAllocs {
		t.Errorf("a warm explanation allocates %.2f times, want at most %d", allocs, maxAllocs)
	}
}
