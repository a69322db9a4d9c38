package gateway

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"time"

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
// reach before AP scans see the write.
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
// and an unbounded decode lets one client hold a server's memory.
const maxBodyBytes = 1 << 20

// ReadSQL decodes the {"sql": "..."} body every statement endpoint takes
// (POST /query here, /explain and /whyslow in explainsvc). On a request
// that is not a POST of a non-empty statement within maxBodyBytes it
// writes the 4xx reply itself and returns false.
func ReadSQL(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return "", false
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil || req.SQL == "" {
		http.Error(w, `body must be {"sql": "..."}`, http.StatusBadRequest)
		return "", false
	}
	return req.SQL, true
}

// maxRowsInReply bounds the rows echoed over HTTP; the full count is
// always reported in row_count.
const maxRowsInReply = 100

// NewServeMux returns the gateway's HTTP surface:
//
//	POST /query   {"sql": "..."} → QueryResponse
//	              SELECT is routed dual-engine; INSERT/UPDATE/DELETE
//	              commit on the TP primary and replicate to the column
//	              store (the reply carries rows_affected + commit_lsn)
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
		var pe *task.PanicError
		if errors.As(resp.Err, &pe) {
			// any other serving error is the client's statement: 200 with
			// the error in the body
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
		}
		writeJSON(w, toQueryResponse(resp))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", obs.PromContentType)
			_, _ = w.Write([]byte(g.PromText()))
			return
		}
		writeJSON(w, g.Metrics())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		traces := g.Tracer().Traces()
		if traces == nil {
			traces = []*obs.QueryTrace{}
		}
		writeJSON(w, traces)
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
