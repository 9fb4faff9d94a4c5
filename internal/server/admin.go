package server

import (
	"encoding/json"
	"net/http"

	"fcae/internal/dispatch"
	"fcae/internal/lsm"
	"fcae/internal/manifest"
)

// adminMux builds the admin plane: /metrics (the unified obs registry,
// JSON by default, ?format=text for the flat text encoding), /healthz
// (200 "ok" serving, 503 "draining" once Close began), and /stats (a
// JSON roll-up of store + dispatch counters and the level shape).
func (s *Server) adminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.db.Metrics()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = m.WriteText(w)
		return
	}
	b, err := m.JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// adminStats is the /stats document.
type adminStats struct {
	ActiveConns int64                   `json:"active_conns"`
	Inflight    int                     `json:"inflight"`
	QueueDepth  int                     `json:"write_queue_depth"`
	Stalled     bool                    `json:"stalled"`
	Store       lsm.Stats               `json:"store"`
	Dispatch    dispatch.Stats          `json:"dispatch"`
	LevelFiles  [manifest.NumLevels]int `json:"level_files"`

	// Requests over ResponseFlushes is the responses per socket write.
	Requests        int64 `json:"requests"`
	ResponseFlushes int64 `json:"response_flushes"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	doc := adminStats{
		ActiveConns: s.active.Load(),
		Inflight:    len(s.inflight),
		QueueDepth:  s.db.WriteQueueDepth(),
		Stalled:     s.stall.stalled(),
		Store:       s.db.Stats(),
		Dispatch:    s.db.DispatchStats(),
		LevelFiles:  s.db.LevelFiles(),

		Requests:        s.met.requests.Value(),
		ResponseFlushes: s.met.flushes.Value(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

func (s *Server) serveAdmin() {
	defer s.wg.Done()
	// Serve returns http.ErrServerClosed on Shutdown/Close; any other
	// error means the admin plane died, which is survivable — the KV
	// plane keeps serving.
	_ = s.admin.Serve(s.adminLn)
}
