package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API. The job endpoints live under
// /api/v1; /healthz and /readyz carry liveness and drain state; the
// observability surface (/metrics, /metrics.json, /debug/pprof/) is the
// shared obs handler over the server's registry, so the kappa_jobs_* series
// and the pipeline metrics scrape from one place.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	oh := obs.Handler(s.opts.Registry)
	mux.Handle("GET /metrics", oh)
	mux.Handle("GET /metrics.json", oh)
	mux.Handle("/debug/pprof/", oh)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleSubmit is admission: parse and validate the spec (400/413), resolve
// the graph, then ask the queue. A full queue is 429 with Retry-After; a
// draining server is 503 with Retry-After. Success is 202 with the job's
// initial status.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.metrics.reject("invalid")
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	in, err := spec.Build(s.opts.GraphDir)
	var timeout time.Duration
	if err == nil {
		timeout, err = s.jobTimeout(spec.Timeout)
	}
	if err != nil {
		s.metrics.reject("invalid")
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// A shard_dir job's mapping stays open for the job's retained lifetime
	// (Status reads node and edge counts through it); the GC releases it
	// once the job is evicted from retention.
	j, err := s.submit(in.Graph, in.Config, timeout)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.reject("queue_full")
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		s.metrics.reject("draining")
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1 — zero tells clients to hammer).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// jobTimeout resolves a spec's deadline: its Timeout when set, the server
// default otherwise, clamped to the server maximum.
func (s *Server) jobTimeout(spec string) (time.Duration, error) {
	timeout := s.opts.DefaultTimeout
	if spec != "" {
		d, err := time.ParseDuration(spec)
		if err != nil {
			return 0, fmt.Errorf("bad timeout %q: %v", spec, err)
		}
		if d < 0 {
			return 0, fmt.Errorf("timeout must be >= 0, got %v", d)
		}
		timeout = d
	}
	if s.opts.MaxTimeout > 0 && (timeout == 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	return timeout, nil
}

// handleList returns every retained job's status, ordered by job number so
// the listing is deterministic regardless of map iteration.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobNum(jobs[a].id) < jobNum(jobs[b].id) })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: out})
}

// jobNum extracts the numeric part of a "jN" id; ids are server-generated so
// the parse cannot fail, but a zero fallback keeps the sort total anyway.
func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// handleStatus returns one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleResult serves a done job's partition in the CLI -out format.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	arts := j.artifacts()
	if arts == nil {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job is %s, result exists only for done jobs", j.Status().State)})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(arts.partition)
}

// handleReport serves a done job's run report; ?zero=1 returns the
// ZeroTimes rendering, byte-comparable across runs of the same input.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	arts := j.artifacts()
	if arts == nil {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job is %s, report exists only for done jobs", j.Status().State)})
		return
	}
	body := arts.report
	if r.URL.Query().Get("zero") == "1" {
		body = arts.reportZero
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleCancel requests cancellation: a queued job settles canceled
// immediately, a running one unwinds through its context. The response is
// the job's status at request time; poll for the terminal state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.Status())
}
