package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htapxplain/internal/explainsvc"
	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
)

// maxConflictRetries is how often a first-writer-wins loser is resubmitted
// on a fresh snapshot before the request counts as failed.
const maxConflictRetries = 3

// sample is one completed request as the client saw it, with the times
// the server put in its reply (-1 where the reply carries none).
type sample struct {
	ns               int64
	serveUS, queueUS int32
	tmpl             uint16
	class            class
}

// loadResult is what one closed-loop run observed.
type loadResult struct {
	attempted, failed int64
	window            window // of the closed loop, on the clock the calibrator shares
	elapsed           time.Duration
	samples           []sample
	failures          []string // the first few, for the report

	replies, respBytes int64 // HTTP replies read, and their bodies' bytes
	rowsReturned       int64 // sum of row_count over the reads
	// write bookkeeping
	txnAttempts, txnDone, conflicts int64 // HTTP attempts; writes that ended as asked
	maxLSN                          uint64
	inserted, deleted, maybeDeleted []int64
	// explanation bookkeeping
	explains, none, planCached, kbHits int64
	exhausted                          bool
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.samples = append(r.samples, o.samples...)
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
	r.replies += o.replies
	r.respBytes += o.respBytes
	r.rowsReturned += o.rowsReturned
	r.txnAttempts += o.txnAttempts
	r.txnDone += o.txnDone
	r.conflicts += o.conflicts
	if o.maxLSN > r.maxLSN {
		r.maxLSN = o.maxLSN
	}
	r.inserted = append(r.inserted, o.inserted...)
	r.deleted = append(r.deleted, o.deleted...)
	r.maybeDeleted = append(r.maybeDeleted, o.maybeDeleted...)
	r.explains += o.explains
	r.none += o.none
	r.planCached += o.planCached
	r.kbHits += o.kbHits
	r.exhausted = r.exhausted || o.exhausted
}

// conn is one keep-alive connection and its reusable buffers.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
	res    loadResult
	spans  *spanLog
}

func newConn(spans *spanLog) *conn {
	return &conn{
		spans: spans,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *conn) fail(s *stmt, format string, args ...any) {
	c.res.failed++
	if len(c.res.failures) < 5 {
		c.res.failures = append(c.res.failures, fmt.Sprintf("%s %q: %s", s.path, s.sql, fmt.Sprintf(format, args...)))
	}
}

// roundTrip posts the statement and reads the whole reply into c.buf. In
// a traced run it records the client.request span and returns the ID of
// the server's http.handler span.
func (c *conn) roundTrip(url string, s *stmt, reqID int64) (status int, handlerSpan int64, err error) {
	req, err := http.NewRequest(http.MethodPost, url+s.path, bytes.NewReader(s.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	spanID := int64(0)
	if c.spans != nil {
		if spanID = c.spans.open(); spanID != 0 {
			req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
		}
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if spanID != 0 {
		c.spans.add(span{Name: "client.request", ID: spanID, Req: reqID, Start: c.spans.since(t0), End: c.spans.since(time.Now())})
		handlerSpan, _ = strconv.ParseInt(resp.Header.Get(spanHeader), 10, 64)
	}
	c.res.replies++
	c.res.respBytes += int64(c.buf.Len())
	return resp.StatusCode, handlerSpan, err
}

// serveSpan hangs the server-reported serve time under the handler span;
// finish() moves it to the end of its parent.
func (c *conn) serveSpan(handlerSpan, serveUS int64) {
	if handlerSpan == 0 {
		return
	}
	if id := c.spans.open(); id != 0 {
		c.spans.add(span{Name: "gateway.serve", ID: id, Parent: handlerSpan, End: serveUS * 1000})
	}
}

// do sends one request, retrying a conflict, and checks the reply. The
// recorded latency runs from the first send to the last byte of the
// final reply; decoding and checking are the generator's own time.
func (c *conn) do(url string, s *stmt, reqID int64) {
	c.res.attempted++
	start := time.Now()
	var (
		q       gateway.QueryResponse
		elapsed time.Duration
		handler int64
	)
	for try := 0; ; try++ {
		status, h, err := c.roundTrip(url, s, reqID)
		elapsed, handler = time.Since(start), h
		if err != nil {
			c.fail(s, "transport: %v", err)
			return
		}
		if status != http.StatusOK {
			c.fail(s, "status %d: %s", status, strings.TrimSpace(c.buf.String()))
			return
		}
		if s.path != "/query" {
			break
		}
		q = gateway.QueryResponse{}
		if err := json.Unmarshal(c.buf.Bytes(), &q); err != nil {
			c.fail(s, "undecodable reply: %v", err)
			return
		}
		c.serveSpan(handler, q.ServeUS)
		if !s.write {
			break
		}
		c.res.txnAttempts++
		if !strings.Contains(q.Error, htap.ErrConflict.Error()) {
			break
		}
		c.res.conflicts++
		if try == maxConflictRetries {
			c.fail(s, "still in conflict after %d retries", maxConflictRetries)
			return
		}
	}

	out := sample{ns: elapsed.Nanoseconds(), serveUS: int32(q.ServeUS), queueUS: int32(q.QueueUS), tmpl: uint16(s.tmpl), class: s.class}
	switch {
	case s.path == "/explain":
		serveUS, ok := c.checkExplain(s)
		if !ok {
			return
		}
		c.serveSpan(handler, serveUS)
		out.serveUS, out.queueUS = int32(serveUS), 0
	case s.path == "/whyslow":
		if !c.checkWhySlow(s) {
			return
		}
		out.serveUS, out.queueUS = -1, -1
	case s.write:
		if !c.checkWrite(s, &q) {
			return
		}
	default:
		if q.Error != "" {
			c.fail(s, "error: %s", q.Error)
			return
		}
		if q.Engine == "AP" {
			out.class = classAP
		}
		c.res.rowsReturned += int64(q.RowCount)
		if s.ref != nil {
			if why := s.ref.checkRows(q.RowCount, q.Rows, q.Truncated); why != "" {
				c.fail(s, "%s", why)
				return
			}
		}
	}
	c.res.samples = append(c.res.samples, out)
}

func (c *conn) checkWrite(s *stmt, q *gateway.QueryResponse) bool {
	if q.Error != "" {
		c.fail(s, "error: %s", q.Error)
		return false
	}
	if !s.commits {
		if q.Kind != "rollback" {
			c.fail(s, "kind %q, want rollback", q.Kind)
			return false
		}
		c.res.txnDone++
		return true
	}
	c.res.txnDone++
	if q.LSN == 0 {
		c.fail(s, "a committed write carries no commit_lsn")
		return false
	}
	if q.LSN > c.res.maxLSN {
		c.res.maxLSN = q.LSN
	}
	c.res.inserted = append(c.res.inserted, s.inserts...)
	// rows_affected tells whether an autocommit DELETE found its row; a
	// block reports one total, so its delete is settled at quiesce
	switch {
	case len(s.deletes) == 0:
	case s.class == classDML && q.RowsAffected == 1:
		c.res.deleted = append(c.res.deleted, s.deletes...)
	case s.class == classTxn:
		c.res.maybeDeleted = append(c.res.maybeDeleted, s.deletes...)
	}
	return true
}

func (c *conn) checkExplain(s *stmt) (serveUS int64, ok bool) {
	var e explainsvc.ExplainResponse
	if err := json.Unmarshal(c.buf.Bytes(), &e); err != nil {
		c.fail(s, "undecodable reply: %v", err)
		return 0, false
	}
	c.res.explains++
	if e.PlanCached {
		c.res.planCached++
	}
	if len(e.Retrieved) > 0 {
		c.res.kbHits++
	}
	switch {
	case e.None:
		c.res.none++
		c.fail(s, "the explanation is None")
	case len(e.Retrieved) == 0:
		c.fail(s, "no knowledge-base entry cited")
	case s.ref != nil && e.Winner != s.ref.Winner:
		c.fail(s, "winner %s, want %s", e.Winner, s.ref.Winner)
	case e.Explanation == "":
		c.fail(s, "empty explanation")
	default:
		return e.ServeUS, true
	}
	return 0, false
}

func (c *conn) checkWhySlow(s *stmt) bool {
	var w explainsvc.WhySlowResponse
	if err := json.Unmarshal(c.buf.Bytes(), &w); err != nil {
		c.fail(s, "undecodable reply: %v", err)
		return false
	}
	switch {
	case s.ref != nil && w.Faster != s.ref.Winner:
		c.fail(s, "faster engine %s, want %s", w.Faster, s.ref.Winner)
	case w.Text == "":
		c.fail(s, "empty diagnosis")
	default:
		return true
	}
	return false
}

// runLoad drives the stream from request *next on, closed loop over
// `connections` keep-alive connections, until the duration is over or
// the stream runs out. Requests are handed out in order to whichever
// connection is free.
func runLoad(url string, st *stream, next *atomic.Int64, d time.Duration, spans *spanLog) *loadResult {
	start := time.Now()
	conns := make([]*conn, connections)
	for i := range conns {
		conns[i] = newConn(spans)
	}
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			defer c.client.CloseIdleConnections()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				s := st.at(i)
				if s == nil {
					c.res.exhausted = true
					return
				}
				c.do(url, s, i)
			}
		}(c)
	}
	wg.Wait()
	out := &loadResult{elapsed: time.Since(start)}
	out.window = window{start.UnixNano(), start.Add(out.elapsed).UnixNano()}
	for _, c := range conns {
		out.merge(&c.res)
	}
	return out
}

// warmUp sends every distinct read once, so that plan caches, the HNSW
// index and lazy set-up are paid for before the measured window.
func warmUp(url string, st *stream) error {
	c := newConn(nil)
	defer c.client.CloseIdleConnections()
	for _, s := range st.reads {
		c.do(url, s, -1)
	}
	if c.res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed; first: %s", c.res.failed, c.res.attempted, c.res.failures[0])
	}
	return nil
}

// --- statistics ---

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of sorted values; 0 when empty.
func quantile(sortedXs []float64, q float64) float64 {
	if len(sortedXs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sortedXs)))) - 1
	if i < 0 {
		i = 0
	}
	return sortedXs[i]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return div(sum(xs), float64(len(xs))) }

// midmean is the mean of the middle half of the values: a typical value
// that a few slow samples do not move and that, unlike a median of whole
// nanoseconds, does not read the same from run to run.
func midmean(xs []float64) float64 {
	s := sorted(xs)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

// latencyStats are the client-side latency figures of one run.
type latencyStats struct {
	n           int
	gmMS        float64 // geometric mean over templates of the template's median
	p50MS       float64
	p99MS       float64
	p999MS      float64
	classP50MS  [numClasses]float64
	classN      [numClasses]int
	templateP50 map[string]float64
}

func latencies(st *stream, samples []sample) latencyStats {
	out := latencyStats{n: len(samples), templateP50: map[string]float64{}}
	all := make([]float64, 0, len(samples))
	byTmpl := make([][]float64, len(st.templates))
	var byClass [numClasses][]float64
	for _, s := range samples {
		ms := float64(s.ns) / 1e6
		all = append(all, ms)
		byTmpl[s.tmpl] = append(byTmpl[s.tmpl], ms)
		byClass[s.class] = append(byClass[s.class], ms)
	}
	sort.Float64s(all)
	out.p50MS = quantile(all, 0.5)
	out.p99MS = quantile(all, 0.99)
	out.p999MS = quantile(all, 0.999)
	logSum, n := 0.0, 0
	for i, xs := range byTmpl {
		if len(xs) == 0 {
			continue
		}
		m := median(xs)
		out.templateP50[st.templates[i]] = m
		logSum += math.Log(m)
		n++
	}
	if n > 0 {
		out.gmMS = math.Exp(logSum / float64(n))
	}
	for c := range byClass {
		out.classN[c] = len(byClass[c])
		out.classP50MS[c] = median(byClass[c])
	}
	return out
}
