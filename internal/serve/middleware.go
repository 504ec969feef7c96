package serve

import (
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// Overload-protection constants. They are deliberately conservative: a
// telemetry daemon's API must stay answerable during fleet-wide
// incidents, which is exactly when request herds arrive.
const (
	// maxConcurrent is the per-endpoint in-flight request cap.
	maxConcurrent = 64
	// maxStaleness is the served-view age beyond which /healthz reports
	// the daemon degraded.
	maxStaleness = 30 * time.Second
	// DefaultRetryAfter is the Retry-After hint on 503 responses.
	DefaultRetryAfter = 1 * time.Second
)

// limited wraps h with a per-endpoint concurrency cap: when capacity
// requests are already in flight the request is rejected immediately
// with 503 + Retry-After instead of queueing — shedding read load at
// admission, the HTTP-side mirror of the ingest queue's policy. A
// saturated endpoint therefore degrades to fast, explicit refusals
// rather than a convoy of slow successes, and one herd (say, a
// dashboard fleet re-rendering /v1/faults) cannot starve the others:
// every endpoint has its own semaphore.
func limited(capacity int, rejected *Counter, h http.HandlerFunc) http.HandlerFunc {
	sem := make(chan struct{}, capacity)
	retryAfter := strconv.Itoa(int(DefaultRetryAfter / time.Second))
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
		default:
			rejected.Inc()
			w.Header().Set("Retry-After", retryAfter)
			writeJSON(w, http.StatusServiceUnavailable,
				errorBody{"saturated: concurrency limit reached; retry later"})
			return
		}
		defer func() { <-sem }()
		h(w, r)
	}
}

// recovered is the outermost backstop: a panicking handler becomes a
// logged 500 on that one request instead of a dead daemon. Malformed
// input must never get this far — the input-hardening tests pin 4xx —
// but an overloaded monitoring pipeline must not die of its own bugs
// mid-incident either.
func recovered(s *Server, panics *Counter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				panics.Inc()
				s.log.Error("handler panic", "path", r.URL.Path, "panic", rec,
					"stack", string(debug.Stack()))
				// The header may already be out; this is best effort.
				writeJSON(w, http.StatusInternalServerError, errorBody{"internal error"})
			}
		}()
		h(w, r)
	}
}
