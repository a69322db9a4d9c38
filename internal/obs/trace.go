package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Span is one timed region of a query's serving path. Spans form a tree
// through Parent indexes into the trace's span slice (-1 = top level);
// they are recorded by the single goroutine serving the query, so no
// locking is needed inside a trace.
type Span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUS int64  `json:"start_us"` // offset from the trace start
	DurUS   int64  `json:"dur_us"`
}

// QueryTrace is the annotated span tree of one served query. A trace is
// only allocated when the tracer's sampling decision selects the query;
// every method is safe on a nil receiver, which is what keeps the
// sampled-out hot path allocation-free.
type QueryTrace struct {
	ID      uint64    `json:"id"`
	Start   time.Time `json:"start"`
	SQL     string    `json:"sql"`
	Kind    string    `json:"kind"`
	Engine  string    `json:"engine,omitempty"`
	Cache   string    `json:"cache,omitempty"`
	TotalUS int64     `json:"total_us"`
	Error   string    `json:"error,omitempty"`
	// Stack is the panicking goroutine's stack when Error is a recovered
	// panic.
	Stack string `json:"stack,omitempty"`
	Spans []Span `json:"spans"`
	// Stats carries the query's execution work counters (exec.Stats for
	// reads); typed as any so this leaf package stays dependency-free.
	Stats any `json:"stats,omitempty"`

	start time.Time
	open  []int // stack of currently-open span indexes
}

// SpanEnd closes one span; returned by Begin so call sites read
//
//	sp := tr.Begin("plan"); ... ; sp.End()
type SpanEnd struct {
	t   *QueryTrace
	idx int32
}

// Begin opens a span nested under the innermost open span. On a nil trace
// it returns a no-op handle.
func (t *QueryTrace) Begin(name string) SpanEnd {
	if t == nil {
		return SpanEnd{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.Spans)
	t.Spans = append(t.Spans, Span{
		Name:    name,
		Parent:  parent,
		StartUS: time.Since(t.start).Microseconds(),
	})
	t.open = append(t.open, idx)
	return SpanEnd{t: t, idx: int32(idx)}
}

// End closes the span. Closing out of order also closes every span opened
// inside it (the serving path is strictly nested, so this only matters on
// error unwinds).
func (e SpanEnd) End() {
	t := e.t
	if t == nil {
		return
	}
	sp := &t.Spans[e.idx]
	sp.DurUS = time.Since(t.start).Microseconds() - sp.StartUS
	for n := len(t.open); n > 0; n-- {
		open := t.open[n-1]
		t.open = t.open[:n-1]
		if open == int(e.idx) {
			break
		}
	}
}

// AddSpan records an already-measured region (e.g. the admission-queue
// wait, whose start predates the trace). Nil-safe.
func (t *QueryTrace) AddSpan(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{
		Name:    name,
		Parent:  -1,
		StartUS: start.Sub(t.start).Microseconds(),
		DurUS:   d.Microseconds(),
	})
}

// SetKind sets the statement kind once classification has happened.
// Nil-safe.
func (t *QueryTrace) SetKind(kind string) {
	if t == nil {
		return
	}
	t.Kind = kind
}

// Annotate attaches routing metadata once it is known. Nil-safe.
func (t *QueryTrace) Annotate(engine, cache string) {
	if t == nil {
		return
	}
	t.Engine, t.Cache = engine, cache
}

// AttachStats attaches the execution work counters. Nil-safe.
func (t *QueryTrace) AttachStats(stats any) {
	if t == nil {
		return
	}
	t.Stats = stats
}

// String renders the annotated span tree, one span per line, indented by
// nesting depth — the slow-query log format.
func (t *QueryTrace) String() string {
	if t == nil {
		return "<no trace>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace #%d kind=%s", t.ID, t.Kind)
	if t.Engine != "" {
		fmt.Fprintf(&b, " engine=%s", t.Engine)
	}
	if t.Cache != "" {
		fmt.Fprintf(&b, " cache=%s", t.Cache)
	}
	fmt.Fprintf(&b, " total=%v sql=%q", time.Duration(t.TotalUS)*time.Microsecond, t.SQL)
	if t.Error != "" {
		fmt.Fprintf(&b, " err=%q", t.Error)
	}
	var render func(parent, depth int)
	render = func(parent, depth int) {
		for i := range t.Spans {
			sp := &t.Spans[i]
			if sp.Parent != parent {
				continue
			}
			fmt.Fprintf(&b, "\n%s%s %v (+%v)", strings.Repeat("  ", depth+1), sp.Name,
				time.Duration(sp.DurUS)*time.Microsecond, time.Duration(sp.StartUS)*time.Microsecond)
			render(i, depth+1)
		}
	}
	render(-1, 0)
	return b.String()
}

// TracerConfig controls sampling and retention.
type TracerConfig struct {
	// SampleRate is the fraction of queries that get a full span trace
	// (0 disables tracing, 1 traces everything). Sampling is deterministic
	// — every round(1/rate)-th query — so a steady workload yields a
	// steady trace stream.
	SampleRate float64
	// RingSize is the trace ring-buffer capacity (default 256).
	RingSize int
	// SlowQuery, when > 0, logs the annotated span tree of any traced
	// query at least this slow. Enabling it forces SampleRate to 1: a span
	// tree cannot be reconstructed after the fact for a query that was
	// sampled out.
	SlowQuery time.Duration
	// SlowLogf receives slow-query log lines (default: drop them).
	SlowLogf func(format string, args ...any)
}

// Tracer makes the per-query sampling decision and retains finished
// traces in a lock-free ring.
type Tracer struct {
	every   int64 // sample every Nth query; 0 = tracing off
	counter atomic.Int64
	nextID  atomic.Uint64
	slowNS  int64
	logf    func(format string, args ...any)
	ring    []atomic.Pointer[QueryTrace]
	ringPos atomic.Uint64
	sampled atomic.Int64
}

// NewTracer builds a tracer. A nil tracer is valid everywhere and traces
// nothing.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	every := int64(0)
	switch {
	case cfg.SlowQuery > 0 || cfg.SampleRate >= 1:
		every = 1
	case cfg.SampleRate > 0:
		every = int64(1/cfg.SampleRate + 0.5)
		if every < 1 {
			every = 1
		}
	}
	return &Tracer{
		every:  every,
		slowNS: int64(cfg.SlowQuery),
		logf:   cfg.SlowLogf,
		ring:   make([]atomic.Pointer[QueryTrace], cfg.RingSize),
	}
}

// Enabled reports whether any query can be sampled.
func (tr *Tracer) Enabled() bool { return tr != nil && tr.every > 0 }

// Start makes the sampling decision for one query: a non-nil trace means
// the query records spans; nil means every span call is a no-op branch.
// The sampled-out path is one atomic add — no allocation, no time call.
func (tr *Tracer) Start(sql, kind string) *QueryTrace {
	if tr == nil || tr.every == 0 {
		return nil
	}
	if tr.every > 1 && tr.counter.Add(1)%tr.every != 0 {
		return nil
	}
	tr.sampled.Add(1)
	now := time.Now()
	return &QueryTrace{
		ID:    tr.nextID.Add(1),
		Start: now,
		SQL:   sql,
		Kind:  kind,
		start: now,
	}
}

// Finish seals the trace (total time, error, any spans left open by an
// error unwind), publishes it to the ring, and emits the slow-query log
// line when the query crossed the threshold. Nil-safe on both receivers.
func (tr *Tracer) Finish(t *QueryTrace, err error) {
	if tr == nil || t == nil {
		return
	}
	total := time.Since(t.start)
	t.TotalUS = total.Microseconds()
	for _, idx := range t.open {
		sp := &t.Spans[idx]
		sp.DurUS = t.TotalUS - sp.StartUS
	}
	t.open = nil
	if err != nil {
		t.Error = err.Error()
	}
	pos := tr.ringPos.Add(1) - 1
	tr.ring[pos%uint64(len(tr.ring))].Store(t)
	if tr.slowNS > 0 && int64(total) >= tr.slowNS && tr.logf != nil {
		tr.logf("slow query (%v): %s", total, t.String())
	}
}

// Sampled returns how many queries have been traced.
func (tr *Tracer) Sampled() int64 {
	if tr == nil {
		return 0
	}
	return tr.sampled.Load()
}

// Traces returns the retained traces, newest first. Traces are immutable
// once published, so the returned pointers are safe to read concurrently
// with serving.
func (tr *Tracer) Traces() []*QueryTrace {
	if tr == nil {
		return nil
	}
	n := uint64(len(tr.ring))
	out := make([]*QueryTrace, 0, n)
	pos := tr.ringPos.Load()
	for i := uint64(0); i < n; i++ {
		// walk backwards from the most recently written slot
		t := tr.ring[(pos+n-1-i)%n].Load()
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}
