package explainsvc

import (
	"errors"
	"net/http"
	"time"

	"htapxplain/internal/gateway"
	"htapxplain/internal/task"
)

// Register mounts the service's HTTP endpoints on the mux, alongside the
// gateway's /query and /metrics:
//
//	POST /explain  {"sql": "..."}  → ExplainResponse
//	POST /whyslow  {"sql": "..."}  → WhySlowResponse
//
// Overload sheds with 503 (same contract as /query); malformed requests
// and non-SELECT statements get 400; a serve that panicked gets 500.
func Register(mux *http.ServeMux, svc *Service) {
	mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) {
		sql, ok := gateway.ReadSQL(w, r)
		if !ok {
			return
		}
		ex, err := svc.Explain(sql)
		if err != nil {
			writeError(w, err)
			return
		}
		retrieved := make([]RetrievedEntry, 0, len(ex.Retrieved))
		for _, h := range ex.Retrieved {
			retrieved = append(retrieved, RetrievedEntry{
				ID:        h.Entry.ID,
				SQL:       h.Entry.SQL,
				Winner:    h.Entry.Winner.String(),
				Distance:  h.Distance,
				Corrected: h.Entry.Corrected,
			})
		}
		gateway.WriteJSON(w, ExplainResponse{
			SQL:         ex.SQL,
			Winner:      ex.Result.Winner.String(),
			Speedup:     ex.Result.Speedup(),
			ModeledMS:   float64(ex.TotalModeledLatency()) / float64(time.Millisecond),
			PlanCached:  ex.PlanCached,
			RouterPick:  ex.RouterPick.String(),
			Explanation: ex.Text(),
			None:        ex.Response.None,
			Retrieved:   retrieved,
			EncodeUS:    ex.EncodeTime.Microseconds(),
			SearchUS:    ex.SearchTime.Microseconds(),
			ServeUS:     ex.ServeTime.Microseconds(),
		})
	})
	mux.HandleFunc("/whyslow", func(w http.ResponseWriter, r *http.Request) {
		sql, ok := gateway.ReadSQL(w, r)
		if !ok {
			return
		}
		rep, err := svc.WhySlow(sql)
		if err != nil {
			writeError(w, err)
			return
		}
		gateway.WriteJSON(w, WhySlowResponse{
			SQL:         rep.SQL,
			Engine:      rep.Engine.String(),
			Faster:      rep.Faster.String(),
			Speedup:     rep.Speedup,
			Bottlenecks: rep.Bottlenecks,
			Advice:      rep.Advice,
			Text:        rep.Text,
		})
	})
}

// ExplainResponse is the /explain wire format. EncodeUS and SearchUS are
// what this request spent embedding the plan pair and searching the
// knowledge base: 0 when it reused its template's retrieval (see the
// package comment), and ModeledMS, which adds them to the model's think
// and generation time, is then that much smaller too.
type ExplainResponse struct {
	SQL         string           `json:"sql"`
	Winner      string           `json:"winner"`
	Speedup     float64          `json:"speedup"`
	ModeledMS   float64          `json:"modeled_latency_ms"`
	PlanCached  bool             `json:"plan_cached"`
	RouterPick  string           `json:"router_pick"`
	Explanation string           `json:"explanation"`
	None        bool             `json:"none"`
	Retrieved   []RetrievedEntry `json:"retrieved"`
	EncodeUS    int64            `json:"encode_us"`
	SearchUS    int64            `json:"search_us"`
	ServeUS     int64            `json:"serve_us"`
}

// RetrievedEntry is one cited knowledge-base entry.
type RetrievedEntry struct {
	ID        int     `json:"id"`
	SQL       string  `json:"sql"`
	Winner    string  `json:"winner"`
	Distance  float64 `json:"distance"`
	Corrected bool    `json:"corrected"`
}

// WhySlowResponse is the /whyslow wire format.
type WhySlowResponse struct {
	SQL         string   `json:"sql"`
	Engine      string   `json:"engine"`
	Faster      string   `json:"faster"`
	Speedup     float64  `json:"speedup"`
	Bottlenecks []string `json:"bottlenecks"`
	Advice      []string `json:"advice"`
	Text        string   `json:"text"`
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var pe *task.PanicError
	switch {
	case errors.Is(err, gateway.ErrOverloaded), errors.Is(err, gateway.ErrStopped):
		code = http.StatusServiceUnavailable
	case errors.As(err, &pe):
		code = http.StatusInternalServerError
	}
	http.Error(w, err.Error(), code)
}
