package serve

// The HTTP face of the service (cmd/radionet-serve mounts it):
//
//	POST /v1/simulate      — sync: spec JSON in, Result JSON out
//	POST /v1/jobs          — async: spec JSON in, 202 + JobView out
//	GET  /v1/jobs/{id}     — job progress / completion
//	GET  /v1/results/{hash} — content-addressed cached Result
//	GET  /v1/stats         — service counters
//	GET  /healthz          — liveness
//
// /v1/simulate and /v1/results responses carry X-Cache (HIT | HIT-DURABLE |
// HIT-PREFIX | MISS | COALESCED) and X-Spec-Hash headers so load
// generators can measure cache behavior client-side.
//
// Failure modes are retryable-vs-not (README "failure modes"): 400 means
// the spec is wrong (don't retry), 503 + Retry-After means the service is
// saturated (queue full, admission control), shutting down (draining), or
// out of request budget (deadline) — retry after the indicated delay; 500
// is an internal failure.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// NewHandler mounts the /v1 API for s, wrapped in the observability
// middleware: every response carries X-Trace-Id (the request's own if it
// sent a valid one, a fresh one otherwise), every request is counted and
// timed into the /metrics registry, and a structured request log line is
// emitted (debug for /healthz and /metrics so the default info level stays
// quiet under probes and scrapes; info otherwise).
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		sp, ok := decodeSpec(w, r)
		if !ok {
			return
		}
		data, hash, status, err := s.SimulateCtx(r.Context(), sp)
		if err != nil {
			writeSimError(w, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Spec-Hash", hash)
		h.Set("X-Cache", cacheHeader(status))
		w.Write(data)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		sp, ok := decodeSpec(w, r)
		if !ok {
			return
		}
		v, err := s.SubmitJobCtx(r.Context(), sp)
		if err != nil {
			switch {
			case errors.Is(err, ErrQueueFull):
				// Backpressure, not a client error: say when to come back.
				writeRetryErr(w, "1", err.Error())
			case errors.Is(err, ErrClosed):
				writeErr(w, http.StatusServiceUnavailable, err.Error())
			default:
				writeSimError(w, err)
			}
			return
		}
		writeJSON(w, http.StatusAccepted, v)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		data, ok := s.ResultByHash(r.PathValue("hash"))
		if !ok {
			writeErr(w, http.StatusNotFound, "result not cached (not computed yet, or evicted — re-request the spec)")
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Cache", "HIT")
		w.Write(data)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return instrument(s, mux)
}

// statusRecorder captures the status code (and, via the embedded header
// map, the X-Cache tier) a handler wrote, for the middleware to observe.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// routeLabel normalizes a request path to its route pattern, bounding the
// metric label space: path parameters (job IDs, spec hashes) must not mint
// series. Unknown paths collapse into "other".
func routeLabel(path string) string {
	switch {
	case path == "/healthz" || path == "/metrics" || path == "/v1/stats" ||
		path == "/v1/simulate" || path == "/v1/jobs":
		return path
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/results/"):
		return "/v1/results/{hash}"
	default:
		return "other"
	}
}

// instrument is the observability middleware (DESIGN.md §10).
func instrument(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		trace := r.Header.Get("X-Trace-Id")
		if !obs.ValidTraceID(trace) {
			trace = obs.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", trace)
		s.met.httpInFlight.Inc()
		defer s.met.httpInFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(obs.WithTrace(r.Context(), trace)))

		route := routeLabel(r.URL.Path)
		dur := time.Since(t0)
		s.met.httpRequests.With(route, strconv.Itoa(rec.code)).Inc()
		s.met.httpLatency.With(route).Observe(dur.Seconds())
		xc := rec.Header().Get("X-Cache")
		// Tier accounting covers the sync simulate path only: the results
		// endpoint's unconditional X-Cache: HIT would dilute the hit ratio.
		if route == "/v1/simulate" {
			s.met.observeTier(xc)
		}
		lvl := slog.LevelInfo
		if route == "/healthz" || route == "/metrics" {
			lvl = slog.LevelDebug
		}
		s.log.LogAttrs(r.Context(), lvl, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.code),
			slog.String("cache", xc),
			slog.Duration("dur", dur),
			slog.String("trace", trace))
	})
}

// maxSpecBody bounds spec request bodies. Valid specs are a few hundred
// bytes; the limit keeps one malicious POST from buffering unbounded JSON
// (the body-side counterpart of the Spec's MaxN/MaxReps guardrails).
const maxSpecBody = 64 << 10

// decodeSpec parses the request body strictly; unknown fields are client
// errors so typos ("epochlen") fail loudly instead of hashing as defaults.
func decodeSpec(w http.ResponseWriter, r *http.Request) (Spec, bool) {
	var sp Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		writeErr(w, http.StatusBadRequest, "bad spec JSON: "+err.Error())
		return Spec{}, false
	}
	// One spec per request: trailing data is a client bug (e.g. two specs
	// concatenated), not something to silently drop.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeErr(w, http.StatusBadRequest, "trailing data after spec JSON")
		return Spec{}, false
	}
	return sp, true
}

// writeSimError maps spec-validation failures to 400, transient conditions
// (backpressure, drain, request deadline) to 503 + Retry-After, and
// everything else (engine/generator failures) to 500.
func writeSimError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadSpec):
		writeErr(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrBusy), errors.Is(err, ErrDraining):
		writeRetryErr(w, "1", err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request's context expired; the computation keeps running and
		// lands in the cache, so an immediate-ish retry is cheap.
		writeRetryErr(w, "1", err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}

func cacheHeader(status CacheStatus) string {
	switch status {
	case StatusHit:
		return "HIT"
	case StatusDurableHit:
		return "HIT-DURABLE"
	case StatusCoalesced:
		return "COALESCED"
	case StatusPrefixHit:
		return "HIT-PREFIX"
	default:
		return "MISS"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeRetryErr is a 503 with a Retry-After hint — the shape of every
// transient, client-retryable failure.
func writeRetryErr(w http.ResponseWriter, retryAfter, msg string) {
	w.Header().Set("Retry-After", retryAfter)
	writeErr(w, http.StatusServiceUnavailable, msg)
}
