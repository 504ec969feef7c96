package serve

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestLimitedRejectsAtCapacity: with one slot held by a blocking
// handler, the next request is refused immediately — 503, Retry-After,
// and a JSON error body — rather than queueing behind it.
func TestLimitedRejectsAtCapacity(t *testing.T) {
	reg := NewRegistry()
	rejected := reg.NewCounter("test_rejected_total", "", "")
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	h := limited(1, rejected, func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		<-release
		w.WriteHeader(http.StatusOK)
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		h(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}()
	<-entered

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated endpoint = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("503 body = %q, want JSON error", rec.Body.String())
	}
	if got := render(t, reg); !strings.Contains(got, "\ntest_rejected_total 1\n") {
		t.Fatalf("rejected counter: want test_rejected_total 1 in\n%s", got)
	}

	close(release)
	<-done
	// The slot is free again: the next request goes through.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("freed endpoint = %d, want 200", rec.Code)
	}
}

// TestRecoveredPanic: a panicking handler becomes a counted, logged 500
// on that request; the server survives.
func TestRecoveredPanic(t *testing.T) {
	reg := NewRegistry()
	panics := reg.NewCounter("test_panics_total", "", "")
	s := &Server{log: slog.New(slog.NewTextHandler(noopWriter{}, nil))}
	h := recovered(s, panics, func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	if got := render(t, reg); !strings.Contains(got, "\ntest_panics_total 1\n") {
		t.Fatalf("panics counter: want test_panics_total 1 in\n%s", got)
	}
}

type noopWriter struct{}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }
