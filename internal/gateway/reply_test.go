package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/plan"
	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

// The /query reply is written by a hand-rolled append encoder
// (appendQueryResponse). This file keeps the reflective path it replaced
// as the reference: toQueryResponse renders a Response into the documented
// QueryResponse, encoding/json encodes that, and every test below holds
// the two byte-equal.

func toQueryResponse(resp *Response) QueryResponse {
	out := QueryResponse{
		SQL:      resp.SQL,
		Kind:     resp.Kind,
		RowCount: len(resp.Rows),
		ServeUS:  resp.ServeTime.Microseconds(),
		QueueUS:  resp.QueueWait.Microseconds(),
	}
	switch resp.Kind {
	case "select":
		out.Engine = resp.Engine.String()
		out.Cache = resp.Cache.String()
		out.TPMillis = float64(resp.TPTime) / float64(time.Millisecond)
		out.APMillis = float64(resp.APTime) / float64(time.Millisecond)
	case "explain", "explain_analyze":
		out.Engine = resp.Engine.String()
		out.Explain = resp.Explain
	default:
		out.RowsAffected = resp.RowsAffected
		out.LSN = resp.LSN
	}
	if resp.Err != nil {
		out.Error = resp.Err.Error()
		return out
	}
	n := len(resp.Rows)
	if n > maxRowsInReply {
		n, out.Truncated = maxRowsInReply, true
	}
	out.Rows = make([][]string, n)
	for i := 0; i < n; i++ {
		out.Rows[i] = renderRow(resp.Rows[i])
	}
	return out
}

func renderRow(r value.Row) []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = v.String()
	}
	return out
}

// referenceReply is the wire contract: encoding/json's rendering of the
// QueryResponse, HTML escaping off, one trailing newline.
func referenceReply(t testing.TB, resp *Response) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(toQueryResponse(resp)); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return b.Bytes()
}

// replyShape is a Response spelled in the types a fuzz function takes, so
// the table's cases are the fuzzer's seed corpus.
type replyShape struct {
	sql, kind string
	ap        bool  // routed engine
	cache     uint8 // CacheOutcome
	// nrows rows of len(cells) cells each; a cells byte picks the cell's
	// kind (0 NULL, 1 int, 2 float, 3 string, 4 true, 5 false, else a
	// Kind no engine produces) and i, f, s its payload (i counts up by row)
	nrows uint8
	cells []byte
	i     int64
	f     float64
	s     string

	affected             int
	lsn                  uint64
	tp, apt, serve, wait int64 // nanoseconds
	explain              string
	errKind              uint8 // 0 none, 1 a statement error, 2 a *task.PanicError
	errText              string
}

func (s replyShape) response() *Response {
	resp := &Response{
		SQL: s.sql, Kind: s.kind, Engine: plan.TP, Cache: CacheOutcome(s.cache),
		RowsAffected: s.affected, LSN: s.lsn,
		TPTime: time.Duration(s.tp), APTime: time.Duration(s.apt),
		ServeTime: time.Duration(s.serve), QueueWait: time.Duration(s.wait),
		Explain: s.explain,
	}
	if s.ap {
		resp.Engine = plan.AP
	}
	for r := 0; r < int(s.nrows); r++ {
		row := make(value.Row, len(s.cells))
		for c, k := range s.cells {
			switch k {
			case 0:
				row[c] = value.Null
			case 1:
				row[c] = value.NewInt(s.i + int64(r))
			case 2:
				row[c] = value.NewFloat(s.f)
			case 3:
				row[c] = value.NewString(s.s)
			case 4, 5:
				row[c] = value.NewBool(k == 4)
			default:
				row[c] = value.Value{K: value.Kind(k), I: s.i, S: s.s}
			}
		}
		resp.Rows = append(resp.Rows, row)
	}
	switch s.errKind % 3 {
	case 1:
		resp.Err = errors.New(s.errText)
	case 2:
		resp.Err = &task.PanicError{Value: s.errText, Stack: []byte("stack")}
	}
	return resp
}

// replyCases is every reply shape the gateway produces, and every cell and
// string the encoder treats specially.
func replyCases() map[string]replyShape {
	sel := replyShape{
		sql: `SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 7`, kind: "select",
		cache: uint8(CacheHit), nrows: 1, cells: []byte{1, 2, 3}, i: 42, f: 173665.47, s: "1-URGENT",
		tp: 1234567, apt: 89012345, serve: 5500, wait: 300,
	}
	with := func(base replyShape, edit func(*replyShape)) replyShape {
		edit(&base)
		return base
	}
	cases := map[string]replyShape{
		"select hit TP":      sel,
		"select hit AP":      with(sel, func(s *replyShape) { s.ap = true }),
		"select template TP": with(sel, func(s *replyShape) { s.cache, s.apt = uint8(CacheTemplateHit), 0 }),
		"select template AP": with(sel, func(s *replyShape) { s.cache, s.ap, s.tp = uint8(CacheTemplateHit), true, 0 }),
		"select miss TP":     with(sel, func(s *replyShape) { s.cache = uint8(CacheMiss) }),
		"select miss AP":     with(sel, func(s *replyShape) { s.cache, s.ap = uint8(CacheMiss), true }),
		"0 rows":             with(sel, func(s *replyShape) { s.nrows = 0 }),
		"0 columns":          with(sel, func(s *replyShape) { s.cells = nil }),
		"100 rows":           with(sel, func(s *replyShape) { s.nrows = maxRowsInReply }),
		"150 rows":           with(sel, func(s *replyShape) { s.nrows = 150 }),
		"every cell kind": with(sel, func(s *replyShape) {
			s.nrows, s.cells, s.i = 3, []byte{0, 1, 2, 3, 4, 5, 9}, -9007199254740993
		}),
		"whole-millisecond and 1 ns modeled times": with(sel, func(s *replyShape) { s.tp, s.apt = 3000000, 1 }),
		"negative and extreme times": with(sel, func(s *replyShape) {
			s.tp, s.apt, s.serve, s.wait = math.MinInt64, math.MaxInt64, -1500, math.MaxInt64
		}),
		"insert":          {sql: `INSERT INTO nation (n_nationkey) VALUES (91)`, kind: "insert", affected: 1, lsn: 17, serve: 90000},
		"update":          {sql: `UPDATE nation SET n_comment = 'a<b' WHERE n_nationkey > 3 AND n_nationkey < 9`, kind: "update", affected: 5, lsn: math.MaxUint64},
		"delete no match": {sql: `DELETE FROM nation WHERE n_nationkey = 91`, kind: "delete"},
		"commit block":    {sql: "BEGIN;\n\tUPDATE nation SET n_comment = 'x' WHERE n_nationkey = 1;\nCOMMIT", kind: "commit", affected: 1, lsn: 18},
		"rollback block":  {sql: `BEGIN; DELETE FROM nation; ROLLBACK`, kind: "rollback"},
		"conflict":        {sql: `BEGIN; UPDATE nation SET n_comment = 'y'; COMMIT`, kind: "conflict", errKind: 1, errText: "write-write conflict"},
		"explain": {sql: `EXPLAIN SELECT COUNT(*) FROM orders`, kind: "explain", ap: true,
			explain: "Aggregate\n  -> Column Scan on orders (cost=3000 rows=3000)\n"},
		"explain analyze": {sql: `EXPLAIN ANALYZE SELECT COUNT(*) FROM orders`, kind: "explain_analyze", ap: true,
			nrows: 1, cells: []byte{1}, i: 3000, explain: "Aggregate (actual time=0.1ms rows=1)\n", serve: 123456},
		"explain that failed": {sql: `EXPLAIN SELECT * FROM nosuch`, kind: "explain", errKind: 1, errText: `unknown table "nosuch"`},
		"statement error with rows present": with(sel, func(s *replyShape) {
			s.nrows, s.errKind, s.errText = 4, 1, "scan aborted: chunk 3 of \"orders\"\nis gone"
		}),
		"parse error":      {sql: `SELECT FROM WHERE`, kind: "select", cache: uint8(CacheMiss), errKind: 1, errText: "parse: unexpected FROM"},
		"empty error text": with(sel, func(s *replyShape) { s.errKind = 1 }),
		"panic": with(sel, func(s *replyShape) {
			s.nrows, s.errKind, s.errText = 0, 2, "runtime error: index out of range [8] with length 0"
		}),
		"unknown kind": {sql: "\x00", kind: "vacuum<&>", ap: true, cache: 7, affected: -3, explain: "dropped", nrows: 2, cells: []byte{3}, s: "kept"},
	}
	for name, f := range map[string]float64{
		"1e21": 1e21, "just under 1e21": 999999999999999868928, "1e-7": 1e-7, "1e-4": 1e-4, "NaN": math.NaN(),
		"+Inf": math.Inf(1), "-Inf": math.Inf(-1), "-0": math.Copysign(0, -1), "max": math.MaxFloat64,
		"denormal": math.SmallestNonzeroFloat64, "a third": 1.0 / 3,
	} {
		f := f
		cases["float cell "+name] = with(sel, func(s *replyShape) { s.cells, s.f = []byte{2}, f })
	}
	for name, str := range map[string]string{
		"quote": `say "hi"`, "backslash": `C:\dir\`, "newline": "a\nb\r\n", "tab": "a\tb",
		"short escapes": "\b\f", "other control bytes": "\x00\x01\x1f\x7f", "html": `<script>a && b > c</script>`,
		"non-ASCII": "naïve café 東京 🚀", "U+2028 and U+2029": "a\u2028b\u2029c",
		"invalid UTF-8": "a\xffb\xc3(\xe2\x82", "lone surrogate": "\xed\xa0\x80", "empty": "",
		"long": strings.Repeat("lorem ipsum \" ", 400),
	} {
		str := str
		cases["string cell "+name] = with(sel, func(s *replyShape) { s.cells, s.s = []byte{3, 1, 3}, str })
		cases["string sql/error/explain "+name] = replyShape{sql: str, kind: "explain", explain: str, errKind: 1, errText: str}
	}
	return cases
}

func checkReply(t *testing.T, resp *Response) {
	t.Helper()
	want := referenceReply(t, resp)
	// a dirty prefix proves the encoder appends rather than assumes an
	// empty buffer
	got := appendQueryResponse([]byte("prefix"), resp)
	if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
		t.Errorf("appendQueryResponse differs from encoding/json:\n got %q\nwant %q", got[len("prefix"):], want)
	}
}

// TestQueryReplyMatchesEncodingJSON: the append encoder writes, byte for
// byte, what json.Encoder writes for the documented QueryResponse.
func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	for name, shape := range replyCases() {
		shape := shape
		t.Run(name, func(t *testing.T) { checkReply(t, shape.response()) })
	}
	// the contract is the reference, so pin one reply of it literally: a
	// change to toQueryResponse that the encoder follows is still a change
	// to the wire format
	got := appendQueryResponse(nil, replyCases()["150 rows"].response())
	var qr QueryResponse
	if err := json.Unmarshal(got, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 150 || len(qr.Rows) != maxRowsInReply || !qr.Truncated ||
		!reflect.DeepEqual(qr.Rows[99], []string{"141", "173665.47", "1-URGENT"}) {
		t.Errorf("150-row reply decodes to row_count %d, %d rows, truncated %v, last row %v", qr.RowCount, len(qr.Rows), qr.Truncated, qr.Rows[len(qr.Rows)-1])
	}
	const one = `{"sql":"UPDATE nation SET n_comment = 'a<b' WHERE n_nationkey > 3 AND n_nationkey < 9","kind":"update","row_count":0,"rows_affected":5,"commit_lsn":18446744073709551615,"serve_us":0,"queue_us":0}` + "\n"
	if got := appendQueryResponse(nil, replyCases()["update"].response()); string(got) != one {
		t.Errorf("update reply:\n got %s\nwant %s", got, one)
	}
}

// TestFloatCellsReply pins the reply for float cells whose bits a
// one-payload value.Value must keep — both zeros, two NaN payloads, both
// infinities, the smallest subnormal — to the bytes recorded when floats
// had a field of their own, and to the reference encoder.
func TestFloatCellsReply(t *testing.T) {
	resp := &Response{SQL: "SELECT f", Kind: "select"}
	for i, bits := range []uint64{0x8000000000000000, 0, 0x7ff8000000000001, 0xfff4000000000abc,
		0x7ff0000000000000, 0xfff0000000000000, 1, 0x4004000000000000, 0xfe37e43c8800759c} {
		resp.Rows = append(resp.Rows, value.Row{value.NewFloat(math.Float64frombits(bits)), value.NewInt(int64(i))})
	}
	const want = `{"sql":"SELECT f","kind":"select","engine":"TP","cache":"miss","row_count":9,` +
		`"rows":[["-0","0"],["0","1"],["NaN","2"],["NaN","3"],["+Inf","4"],["-Inf","5"],["5e-324","6"],["2.5","7"],["-1e+300","8"]],` +
		`"serve_us":0,"queue_us":0}` + "\n"
	if got := appendQueryResponse(nil, resp); string(got) != want {
		t.Errorf("float reply:\n got %s\nwant %s", got, want)
	}
	checkReply(t, resp)
}

// FuzzQueryReplyMatchesEncodingJSON runs the table above as its seed
// corpus under plain `go test`, and searches from it under -fuzz.
func FuzzQueryReplyMatchesEncodingJSON(f *testing.F) {
	for _, s := range replyCases() {
		f.Add(s.sql, s.kind, s.ap, s.cache, s.nrows, s.cells, s.i, s.f, s.s,
			s.affected, s.lsn, s.tp, s.apt, s.serve, s.wait, s.explain, s.errKind, s.errText)
	}
	f.Fuzz(func(t *testing.T, sql, kind string, ap bool, cache, nrows uint8, cells []byte, i int64, fl float64, str string,
		affected int, lsn uint64, tp, apt, serve, wait int64, explain string, errKind uint8, errText string) {
		if len(cells) > 16 {
			cells = cells[:16] // wide enough for every kind; keeps 255 rows cheap
		}
		checkReply(t, replyShape{sql, kind, ap, cache, nrows, cells, i, fl, str,
			affected, lsn, tp, apt, serve, wait, explain, errKind, errText}.response())
	})
}

// selectReply is a warm point read's reply with n result rows.
func selectReply(n int) *Response {
	s := replyCases()["select hit TP"]
	s.nrows = uint8(n)
	return s.response()
}

// TestQueryReplyEncodeAllocs: encoding a reply into a buffer that has held
// one allocates nothing, whatever the row count — no cell is rendered to
// a string on the way.
func TestQueryReplyEncodeAllocs(t *testing.T) {
	for _, n := range []int{1, maxRowsInReply} {
		resp := selectReply(n)
		buf := appendQueryResponse(nil, resp)
		if allocs := testing.AllocsPerRun(100, func() { buf = appendQueryResponse(buf[:0], resp) }); allocs != 0 {
			t.Errorf("%d-row reply: %.0f allocations per encode, want 0", n, allocs)
		}
	}
}

func BenchmarkQueryReplyEncode(b *testing.B) {
	for _, n := range []int{1, maxRowsInReply} {
		resp := selectReply(n)
		b.Run(strconv.Itoa(n)+"rows", func(b *testing.B) {
			buf := appendQueryResponse(nil, resp)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendQueryResponse(buf[:0], resp)
			}
		})
	}
}

// nullWriter is a ResponseWriter that keeps nothing, so a handler's
// allocation count is the handler's own.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// handlerAllocsOverSubmit is what POST /query may allocate on top of the
// Submit it wraps, for a warm cache-hit point read: the body's size
// limiter, the decode of {"sql": ...} (the statement's copy among it) and
// two header values. A run reads 13 (go1.24; the reflective, indented path
// this replaced read 58); the rest is room for another toolchain's
// encoding/json. Raise it only with a reason.
const handlerAllocsOverSubmit = 16

// TestQueryHandlerAllocs: the wire path around a serve allocates a small
// constant — not a function of the reply — more than the serve itself.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the count is meaningless under it")
	}
	sys := testSystem(t)
	g := New(sys, Config{Workers: 1, CacheCapacity: 64})
	defer g.Stop()
	mux := NewServeMux(g)
	sql := joinPool(1)[0].SQL
	body, _ := json.Marshal(QueryRequest{SQL: sql})

	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	w := &nullWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		req.Body, req.ContentLength = io.NopCloser(rd), int64(len(body))
		mux.ServeHTTP(w, req)
	}
	serve() // plan, then cache
	if resp, err := g.Submit(sql); err != nil || resp.Err != nil || resp.Cache != CacheHit {
		t.Fatalf("warm-up: %v / %+v", err, resp)
	}
	submit := testing.AllocsPerRun(200, func() { _, _ = g.Submit(sql) })
	handler := testing.AllocsPerRun(200, serve)
	t.Logf("Submit %.0f allocs, POST /query %.0f allocs (+%.0f)", submit, handler, handler-submit)
	if handler > submit+handlerAllocsOverSubmit {
		t.Errorf("POST /query allocates %.0f, Submit alone %.0f: the wire path costs %.0f, want ≤ %d",
			handler, submit, handler-submit, handlerAllocsOverSubmit)
	}
}

// TestQueryRepliesOverTheSocket: through a real listener, every statement
// kind's reply declares its length, decodes into the documented
// QueryResponse, and says what Gateway.Serve says for the same statement;
// a serve that panicked is one 500 whose body is still that JSON.
func TestQueryRepliesOverTheSocket(t *testing.T) {
	sys := writeSystem(t)
	g := New(sys, Config{Workers: 1, QueueDepth: 1, CacheCapacity: 64})
	defer g.Stop()
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()

	post := func(sql string) (int, QueryResponse) {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{SQL: sql})
		hr, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /query %q: %v", sql, err)
		}
		defer hr.Body.Close()
		raw, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatalf("reading the reply to %q: %v", sql, err)
		}
		if cl := hr.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) || len(hr.TransferEncoding) != 0 {
			t.Errorf("%q: Content-Length %q, Transfer-Encoding %v for a %d-byte body", sql, cl, hr.TransferEncoding, len(raw))
		}
		if ct := hr.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%q: Content-Type %q", sql, ct)
		}
		if bytes.Contains(raw, []byte("\n ")) || !bytes.HasSuffix(raw, []byte("}\n")) {
			t.Errorf("%q: reply is not one compact line:\n%s", sql, raw)
		}
		var qr QueryResponse
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&qr); err != nil {
			t.Fatalf("%q: reply does not decode into a QueryResponse: %v\n%s", sql, err, raw)
		}
		return hr.StatusCode, qr
	}

	// the list undoes its own writes, so a second pass sees the first's data
	statements := []string{
		`SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = 7`,
		`SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = 8`,
		`SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority`,
		`SELECT n_nationkey FROM nation WHERE n_nationkey < 0`,
		`SELECT o_orderkey, o_comment FROM orders WHERE o_orderkey <= 100 ORDER BY o_orderkey`,
		`SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey LIMIT 150`,
		`INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (91, 'oz', 0, 'a < b && "c" > d')`,
		`SELECT n_comment FROM nation WHERE n_nationkey = 91`,
		`UPDATE nation SET n_comment = 'ruby' WHERE n_nationkey = 91`,
		`BEGIN; UPDATE nation SET n_comment = 'tiny' WHERE n_nationkey = 91; COMMIT`,
		`BEGIN; DELETE FROM nation WHERE n_nationkey = 91; ROLLBACK`,
		`DELETE FROM nation WHERE n_nationkey = 91`,
		`EXPLAIN SELECT COUNT(*) FROM orders`,
		`EXPLAIN ANALYZE SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000`,
		`SELECT FROM WHERE`,
		`SELECT * FROM nosuch`,
	}
	wire := make([]QueryResponse, len(statements))
	for i, sql := range statements {
		code, qr := post(sql)
		if code != http.StatusOK {
			t.Fatalf("%q: status %d, want 200 (a statement's own error is in the body)", sql, code)
		}
		wire[i] = qr
	}
	kinds := map[string]bool{}
	for i, sql := range statements {
		resp, qr := g.Serve(sql), wire[i]
		kinds[resp.Kind] = true
		want := toQueryResponse(resp)
		if len(want.Rows) == 0 {
			want.Rows = nil // omitempty: an empty result has no "rows" to decode
		}
		if qr.SQL != sql || qr.Kind != want.Kind || qr.RowCount != want.RowCount || qr.Truncated != want.Truncated ||
			qr.Error != want.Error || qr.RowsAffected != want.RowsAffected || !reflect.DeepEqual(qr.Rows, want.Rows) {
			t.Errorf("%q over the socket:\n got %+v\nwant %+v", sql, qr, want)
		}
	}
	for _, k := range []string{"select", "insert", "update", "delete", "commit", "rollback", "explain", "explain_analyze"} {
		if !kinds[k] {
			t.Errorf("no statement of kind %q was served", k)
		}
	}

	tearChunk(t, sys, "lineitem", "l_quantity")
	code, qr := post(`SELECT SUM(l_quantity) FROM lineitem`)
	if code != http.StatusInternalServerError || !strings.HasPrefix(qr.Error, "panic: ") || qr.Kind != "select" {
		t.Errorf("panicking serve: status %d, reply %+v, want a 500 whose body names the panic", code, qr)
	}
	if code, qr := post(`SELECT COUNT(*) FROM region`); code != http.StatusOK || qr.Error != "" || fmt.Sprint(qr.Rows) != "[[5]]" {
		t.Errorf("request after the panic: status %d, %+v", code, qr)
	}
}
