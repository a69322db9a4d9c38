package gateway

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"htapxplain/internal/obs"
	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

// QueryRequest is the JSON body of POST /query, /explain and /whyslow.
type QueryRequest struct {
	SQL string `json:"sql"`
}

// QueryResponse is the JSON reply of POST /query. Reads report the routed
// engine and result rows; DML (kind insert/update/delete) reports the
// affected row count and the commit LSN the replication watermark must
// reach before AP scans see the write. The server does not marshal this
// type — appendQueryResponse writes the same bytes from a Response — but
// it is the format: clients decode into it, and the tests hold the
// encoder to encoding/json's rendering of it.
type QueryResponse struct {
	SQL          string     `json:"sql"`
	Kind         string     `json:"kind"`
	Engine       string     `json:"engine,omitempty"`
	Cache        string     `json:"cache,omitempty"`
	RowCount     int        `json:"row_count"`
	Rows         [][]string `json:"rows,omitempty"`
	RowsAffected int        `json:"rows_affected,omitempty"`
	LSN          uint64     `json:"commit_lsn,omitempty"`
	TPMillis     float64    `json:"modeled_tp_ms,omitempty"`
	APMillis     float64    `json:"modeled_ap_ms,omitempty"`
	ServeUS      int64      `json:"serve_us"`
	QueueUS      int64      `json:"queue_us"`
	Explain      string     `json:"explain,omitempty"`
	Error        string     `json:"error,omitempty"`
	Truncated    bool       `json:"truncated,omitempty"`
}

// maxBodyBytes bounds a request body: a statement is a few hundred bytes,
// and an unbounded read lets one client hold a server's memory.
const maxBodyBytes = 1 << 20

const tooLargeMsg = "body over 1 MiB"

// maxPooledBuf is the largest buffer wireBufs keeps: one wide reply or
// one maxBodyBytes body must not pin its memory for the process's life.
const maxPooledBuf = 64 << 10

// wireBufs holds the buffers a request body is read into and a /query
// reply is appended to. A buffer is held only between a get and the put
// that follows the last use of its bytes.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func putWireBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		wireBufs.Put(b)
	}
}

// ReadSQL decodes the {"sql": "..."} body every statement endpoint takes
// (POST /query here, /explain and /whyslow in explainsvc). On a request
// that is not a POST of exactly one such object, with a non-empty
// statement, within maxBodyBytes, it writes the 4xx reply itself (405,
// 413 for the size, 400 otherwise) and returns false.
func ReadSQL(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return "", false
	}
	if r.ContentLength > maxBodyBytes { // refused before any of it is read
		http.Error(w, tooLargeMsg, http.StatusRequestEntityTooLarge)
		return "", false
	}
	buf := wireBufs.Get().(*[]byte)
	defer putWireBuf(buf)
	body, err := readInto((*buf)[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes))
	*buf = body
	// Unmarshal checks the whole body, so anything but whitespace after
	// the object is an error; req.SQL is a copy, not a view of the buffer
	var req QueryRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge): // a chunked body declares no length
		http.Error(w, tooLargeMsg, http.StatusRequestEntityTooLarge)
	case err != nil || json.Unmarshal(body, &req) != nil || req.SQL == "":
		http.Error(w, `body must be {"sql": "..."}`, http.StatusBadRequest)
	default:
		return req.SQL, true
	}
	return "", false
}

// readInto is io.ReadAll appending to a buffer the caller owns.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// maxRowsInReply bounds the rows echoed over HTTP; the full count is
// always reported in row_count.
const maxRowsInReply = 100

// NewServeMux returns the gateway's HTTP surface:
//
//	POST /query   {"sql": "..."} → QueryResponse, one compact line with a
//	              Content-Length; `<`, `>`, `&` are not \u-escaped
//	              SELECT is routed dual-engine; INSERT/UPDATE/DELETE
//	              commit on the TP primary and replicate to the column
//	              store (the reply carries rows_affected + commit_lsn)
//	              400 for a body that is not exactly one such object,
//	              413 for one over 1 MiB, 503 when shed; a statement's
//	              own error is a 200 with "error" set, a serve that
//	              panicked a 500 with the same body
//	GET  /metrics               → Snapshot as JSON (including the freshness
//	                              gauge: commit_lsn, replication_watermark,
//	                              staleness_lsns, delta_merges); with
//	                              ?format=prometheus, the text exposition
//	                              format 0.0.4 instead
//	GET  /debug/traces          → retained sampled query traces, newest
//	                              first, as JSON
//	GET  /debug/pprof/          → net/http/pprof: CPU profile, heap,
//	                              goroutines, execution trace
//	GET  /healthz               → 200 ok
func NewServeMux(g *Gateway) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		sql, ok := ReadSQL(w, r)
		if !ok {
			return
		}
		resp, err := g.Submit(sql)
		switch {
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrStopped):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		buf := wireBufs.Get().(*[]byte)
		*buf = appendQueryResponse((*buf)[:0], resp)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(*buf)))
		var pe *task.PanicError
		if errors.As(resp.Err, &pe) {
			// any other serving error is the client's statement: 200 with
			// the error in the body
			w.WriteHeader(http.StatusInternalServerError)
		}
		_, _ = w.Write(*buf) // a failed write is the client gone
		putWireBuf(buf)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", obs.PromContentType)
			_, _ = w.Write([]byte(g.PromText()))
			return
		}
		WriteJSON(w, g.Metrics())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		traces := g.Tracer().Traces()
		if traces == nil {
			traces = []*obs.QueryTrace{}
		}
		WriteJSON(w, traces)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// appendQueryResponse appends the /query reply for resp to buf: the JSON
// object json.Encoder (SetEscapeHTML(false)) writes for the QueryResponse
// of resp, trailing newline included, built from resp.Rows without
// rendering them into strings first. reply_test.go holds it byte-equal to
// that reference encoder.
func appendQueryResponse(buf []byte, resp *Response) []byte {
	buf = appendJSONString(append(buf, `{"sql":`...), resp.SQL)
	buf = appendJSONString(append(buf, `,"kind":`...), resp.Kind)
	sel := resp.Kind == "select"
	explain := resp.Kind == "explain" || resp.Kind == "explain_analyze"
	if sel || explain {
		buf = appendJSONString(append(buf, `,"engine":`...), resp.Engine.String())
	}
	if sel {
		buf = appendJSONString(append(buf, `,"cache":`...), resp.Cache.String())
	}
	buf = strconv.AppendInt(append(buf, `,"row_count":`...), int64(len(resp.Rows)), 10)
	rows, truncated := resp.Rows, false
	if resp.Err != nil {
		rows = nil
	} else if len(rows) > maxRowsInReply {
		rows, truncated = rows[:maxRowsInReply], true
	}
	for i, row := range rows {
		if i == 0 {
			buf = append(buf, `,"rows":[[`...)
		} else {
			buf = append(buf, `,[`...)
		}
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendCell(buf, v)
		}
		buf = append(buf, ']')
	}
	if len(rows) > 0 {
		buf = append(buf, ']')
	}
	if !sel && !explain {
		if resp.RowsAffected != 0 {
			buf = strconv.AppendInt(append(buf, `,"rows_affected":`...), int64(resp.RowsAffected), 10)
		}
		if resp.LSN != 0 {
			buf = strconv.AppendUint(append(buf, `,"commit_lsn":`...), resp.LSN, 10)
		}
	}
	if sel {
		buf = appendMillis(buf, `,"modeled_tp_ms":`, resp.TPTime)
		buf = appendMillis(buf, `,"modeled_ap_ms":`, resp.APTime)
	}
	buf = strconv.AppendInt(append(buf, `,"serve_us":`...), resp.ServeTime.Microseconds(), 10)
	buf = strconv.AppendInt(append(buf, `,"queue_us":`...), resp.QueueWait.Microseconds(), 10)
	if explain && resp.Explain != "" {
		buf = appendJSONString(append(buf, `,"explain":`...), resp.Explain)
	}
	if resp.Err != nil {
		if msg := resp.Err.Error(); msg != "" {
			buf = appendJSONString(append(buf, `,"error":`...), msg)
		}
	}
	if truncated {
		buf = append(buf, `,"truncated":true`...)
	}
	return append(buf, "}\n"...)
}

// appendMillis appends key and d in milliseconds, or nothing for a zero d
// (the fields are omitempty). A nanosecond count over 1e6 is 0 or lies in
// [1e-6, 1e13), where encoding/json never switches to exponent form.
func appendMillis(buf []byte, key string, d time.Duration) []byte {
	if d == 0 {
		return buf
	}
	return strconv.AppendFloat(append(buf, key...), float64(d)/float64(time.Millisecond), 'f', -1, 64)
}

// appendCell appends one result cell as the JSON string of v.String().
func appendCell(buf []byte, v value.Value) []byte {
	switch v.K {
	case value.KindInt:
		return append(strconv.AppendInt(append(buf, '"'), v.I, 10), '"')
	case value.KindFloat:
		return append(strconv.AppendFloat(append(buf, '"'), v.Float(), 'g', -1, 64), '"')
	case value.KindString:
		return appendJSONString(buf, v.S)
	default: // NULL, true, false
		return appendJSONString(buf, v.String())
	}
}

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping off: `"` and `\` backslash-escaped, control bytes as
// \b \f \n \r \t or \u00XX, U+2028/U+2029 as \u2028/\u2029, each
// invalid UTF-8 byte as \ufffd, everything else — `<`, `>`, `&` included,
// the reply is never HTML — as it is.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				buf = append(append(buf, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				buf = append(append(buf, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' {
			i++
			continue
		}
		buf = append(buf, s[start:i]...)
		switch b {
		case '"', '\\':
			buf = append(buf, '\\', b)
		case '\b':
			buf = append(buf, '\\', 'b')
		case '\f':
			buf = append(buf, '\\', 'f')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(append(buf, s[start:]...), '"')
}

// WriteJSON writes v as the compact application/json reply of every
// endpoint but /query: /metrics and /debug/traces here, /explain and
// /whyslow in explainsvc.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // a failed write is the client gone
}
