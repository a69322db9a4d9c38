// Package explain implements the paper's primary contribution: the
// retrieval-augmented explanation pipeline for HTAP query performance.
// For a query, the pipeline (1) takes the TP/AP plan pair and its modeled
// execution result (plan.Modeled, from htap.System.Model or the serving
// gateway's plan cache — the pipeline never executes a query), (2)
// encodes the pair with the smart router into the 16-dim plan-pair
// embedding, (3) retrieves the top-K most similar historical entries from
// the knowledge base, (4) assembles the three-part engineered prompt with
// the retrieved knowledge, (5) steers the pre-trained LLM to generate a
// natural-language explanation (or None when the knowledge is
// insufficient), and (6) accepts expert corrections back into the
// knowledge base (§III-B).
package explain

import (
	"fmt"
	"time"

	"htapxplain/internal/expert"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
	"htapxplain/internal/treecnn"
)

// Options configure the explainer.
type Options struct {
	// K is the number of retrieved similar plan pairs (paper default 2).
	K int
	// UseRAG toggles retrieval; false reproduces the RAG-free ablation
	// used for the fair DBG-PT comparison (§VI-D).
	UseRAG bool
	// UserContext is the optional third prompt part.
	UserContext string
	// IncludeGuardrail controls the cost-comparison prohibition.
	IncludeGuardrail bool
}

// DefaultOptions returns the paper's experimental configuration.
func DefaultOptions() Options {
	return Options{K: 2, UseRAG: true, IncludeGuardrail: true}
}

// Explainer is the assembled pipeline. It is immutable once built and safe
// for concurrent use.
type Explainer struct {
	Router *treecnn.Router
	KB     *knowledge.Base
	Model  llm.Model
	Oracle *expert.Oracle
	Opts   Options

	// prompts carries the options and the catalog's schema summary as
	// rendered when the explainer was built.
	prompts *prompt.Builder
}

// New wires the pipeline.
func New(sys *htap.System, router *treecnn.Router, kb *knowledge.Base, model llm.Model, opts Options) *Explainer {
	if opts.K <= 0 {
		opts.K = 2
	}
	b := prompt.NewBuilder(sys.Cat.SchemaSummary())
	b.IncludeGuardrail = opts.IncludeGuardrail
	b.IncludeRAG = opts.UseRAG
	b.UserContext = opts.UserContext
	return &Explainer{Router: router, KB: kb, Model: model, Oracle: expert.NewOracle(sys), Opts: opts, prompts: b}
}

// Explanation is the full output of one pipeline run, including the
// latency decomposition the paper reports (§VI-B).
type Explanation struct {
	SQL       string
	Result    *plan.Modeled
	Encoding  []float64
	Retrieved []knowledge.Hit
	Response  llm.Response
	// EncodeTime is the smart-router embedding time (paper: < 1 ms).
	EncodeTime time.Duration
	// SearchTime is the KB search time (paper: < 0.1 ms at 20 entries).
	SearchTime time.Duration

	// prefix and question are the prompt's two parts: the retrieval's
	// prefix, shared by every question about the template, and this
	// query's QUESTION section.
	prefix, question string
}

// Prompt returns the full prompt the model answered.
func (e *Explanation) Prompt() string { return e.prefix + e.question }

// Text returns the generated explanation text.
func (e *Explanation) Text() string { return e.Response.Text }

// TotalModeledLatency is the end-to-end response time with the modeled
// LLM think/generation components.
func (e *Explanation) TotalModeledLatency() time.Duration {
	return e.EncodeTime + e.SearchTime + e.Response.ThinkTime + e.Response.GenTime
}

// Explain explains the performance difference between the two engines on
// a query, given its plan pair and modeled execution result:
// Compose(m, Retrieve(&m.Pair)).
func (e *Explainer) Explain(m *plan.Modeled) (*Explanation, error) {
	r, err := e.Retrieve(&m.Pair)
	if err != nil {
		return nil, err
	}
	return e.Compose(m, r)
}

// Retrieval is everything an explanation takes from its plan pair, the
// explainer's router, model and knowledge base, and nothing from the
// query's literals or its modeled latencies: the pair's encoding and the
// router's pick for it, the top-K knowledge-base hits, both plans' JSON,
// the prompt rendered up to its QUESTION and the model's prefill of that
// prefix. It is immutable, so any number of Compose calls may share it
// for as long as the explainer that built it is the one composing and the
// knowledge base is still at KBVersion.
type Retrieval struct {
	// Explainer is the explainer that built it: its router encoded the
	// pair, and its options and schema summary are in Prefix.
	Explainer *Explainer
	Encoding  []float64
	// RouterPick is the router's engine prediction for the pair.
	RouterPick plan.Engine
	Hits       []knowledge.Hit
	// TPPlanJSON and APPlanJSON are the pair's plans as the prompt shows them.
	TPPlanJSON, APPlanJSON string
	// Prefix is the prompt before its QUESTION section (prompt.Builder.Prefix).
	Prefix string
	// Prefill is the explainer's model's reading of Prefix.
	Prefill llm.Prefill
	// KBVersion is the knowledge base's Version read before the search, so
	// the hits are from that version or a later one, never an earlier one.
	KBVersion uint64
	// EncodeTime and SearchTime are what building the retrieval spent.
	EncodeTime, SearchTime time.Duration
}

// Retrieve encodes pair with the explainer's router, searches the
// knowledge base for the K nearest entries (when RAG is on), renders the
// prompt's prefix around them and has the model prefill it.
func (e *Explainer) Retrieve(pair *plan.Pair) (*Retrieval, error) {
	r := &Retrieval{Explainer: e, KBVersion: e.KB.Version()}
	t0 := time.Now()
	r.Encoding = e.Router.EmbedPair(pair)
	r.EncodeTime = time.Since(t0)
	r.RouterPick, _ = e.Router.Classify(r.Encoding)

	if e.Opts.UseRAG {
		t1 := time.Now()
		hits, err := e.KB.TopK(r.Encoding, e.Opts.K)
		if err != nil {
			return nil, fmt.Errorf("explain: retrieval: %w", err)
		}
		r.SearchTime = time.Since(t1)
		r.Hits = hits
	}
	r.TPPlanJSON = pair.TP.ExplainJSON()
	r.APPlanJSON = pair.AP.ExplainJSON()
	r.Prefix = e.prompts.Prefix(r.Hits)
	r.Prefill = e.Model.Prefill(r.Prefix)
	return r, nil
}

// Compose finishes an explanation of m from a retrieval of its pair: it
// renders the QUESTION section — m's SQL and result, the only text a
// prompt takes from the query itself — and has r's prefill answer it. The
// explanation reports r's encode and search times.
func (e *Explainer) Compose(m *plan.Modeled, r *Retrieval) (*Explanation, error) {
	out := &Explanation{
		SQL:        m.SQL,
		Result:     m,
		Encoding:   r.Encoding,
		Retrieved:  r.Hits,
		EncodeTime: r.EncodeTime,
		SearchTime: r.SearchTime,
		prefix:     r.Prefix,
	}
	out.question = prompt.Compose("", prompt.Question{
		SQL:        m.SQL,
		TPPlanJSON: r.TPPlanJSON,
		APPlanJSON: r.APPlanJSON,
		Winner:     m.Winner,
		Speedup:    m.Speedup(),
	})
	resp, err := r.Prefill.Generate(out.question)
	if err != nil {
		return nil, fmt.Errorf("explain: generation: %w", err)
	}
	out.Response = resp
	return out, nil
}

// Feedback records an expert correction for a wrong or imprecise
// explanation: the corrected text is stored in the knowledge base under
// the query's encoding so future similar queries retrieve it (§III-B:
// "experts will correct it and add the revised version to the knowledge
// base").
func (e *Explainer) Feedback(ex *Explanation, corrected string, truth expert.Truth) error {
	if _, err := e.KB.Add(NewEntry(e.Router, ex.Result, corrected, truth.AllFactors(), true)); err != nil {
		return fmt.Errorf("explain: feedback: %w", err)
	}
	return nil
}
