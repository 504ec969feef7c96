package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/topology"
)

// newOverloadServer serves the fixture with a controllable overload
// status, as astrad wires it in production.
func newOverloadServer(t *testing.T, st *overload.Status) *httptest.Server {
	t.Helper()
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)
	s := serve.New(serve.Config{
		Source:   e,
		Overload: func() overload.Status { return *st },
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestHealthzOverloadStatus pins the health state machine: ok while the
// queue is calm, shedding while it is saturated, degraded while the
// checkpoint breaker is not closed — and always 200, because health is
// reported, not enforced.
func TestHealthzOverloadStatus(t *testing.T) {
	st := &overload.Status{
		Queue:   overload.QueueStats{Capacity: 128, High: 128, Low: 64},
		Breaker: overload.BreakerStats{State: overload.BreakerClosed.String()},
	}
	ts := newOverloadServer(t, st)

	var h struct {
		Status   string `json:"status"`
		Records  int    `json:"records"`
		Overload *struct {
			Queue overload.QueueStats `json:"queue"`
		} `json:"overload"`
	}
	get(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("calm daemon status = %q, want ok", h.Status)
	}
	if h.Overload == nil || h.Overload.Queue.Capacity != 128 {
		t.Fatalf("healthz did not carry the overload accounting: %+v", h.Overload)
	}

	st.Breaker.State = overload.BreakerOpen.String()
	get(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "degraded" {
		t.Fatalf("open breaker status = %q, want degraded", h.Status)
	}

	// Saturation outranks the breaker: actively refusing ingest is the
	// louder signal.
	st.Queue.Saturated = true
	st.Queue.Depth = 128
	get(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "shedding" {
		t.Fatalf("saturated queue status = %q, want shedding", h.Status)
	}

	st.Queue.Saturated = false
	st.Breaker.State = overload.BreakerClosed.String()
	get(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("recovered daemon status = %q, want ok", h.Status)
	}
}

// TestHealthzShedDegraded: once records have been shed the daemon's
// answers undercount and /healthz must say so even after the queue calms
// down.
func TestHealthzShedDegraded(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{})
	e.IngestBatch(ds.CERecords)
	e.NoteShed(5)
	s := serve.New(serve.Config{Source: e})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var h struct {
		Status  string `json:"status"`
		Records int    `json:"records"`
		Offered int    `json:"offered"`
		Shed    int    `json:"shed"`
	}
	get(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "degraded" {
		t.Fatalf("shed daemon status = %q, want degraded", h.Status)
	}
	if h.Shed != 5 || h.Offered != h.Records+5 {
		t.Fatalf("healthz books do not balance: %+v", h)
	}
}

// TestInputHardening: malformed query strings, node IDs, and oversized
// paths must come back as 4xx — never a 500, never a panic. The daemon's
// API faces dashboards and curl-wielding operators mid-incident; bad
// input is routine, not exceptional.
func TestInputHardening(t *testing.T) {
	_, ts := newTestServer(t)

	cases := []struct {
		name, path string
		wantMax    int // highest acceptable status code
	}{
		{"mode garbage", "/v1/faults?mode=%00%ff", 499},
		{"mode oversized", "/v1/faults?mode=" + strings.Repeat("x", 64<<10), 499},
		{"mode unicode", "/v1/faults?mode=" + url.QueryEscape("единица-бита"), 499},
		{"mode almost valid", "/v1/faults?mode=single-bit%20", 499},
		{"node garbage", "/v1/nodes/pwned", 499},
		{"node empty-ish", "/v1/nodes/%20", 499},
		{"node oversized", "/v1/nodes/" + strings.Repeat("a", 32<<10), 499},
		{"node unicode", "/v1/nodes/" + url.PathEscape("astra-r01c01nλ"), 499},
		{"node negative", "/v1/nodes/astra-r-1c01n1", 499},
		{"node out of range", "/v1/nodes/astra-r99c99n9", 499},
		{"node numeric overflow", "/v1/nodes/astra-r99999999999999999999c01n1", 499},
		{"node null bytes", "/v1/nodes/astra%00-r01c01n1", 499},
		{"unknown path", "/v1/nope", 499},
		{"root", "/", 499},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode > tc.wantMax {
				t.Fatalf("GET %s = %d, want 4xx: %s", tc.path, resp.StatusCode, body)
			}
		})
	}
}

// FuzzNodePath hammers the node endpoint with arbitrary IDs; any 5xx is
// a bug (the panic backstop would mask one as a 500, so 500s fail too).
func FuzzNodePath(f *testing.F) {
	ds := fixture(f)
	e := stream.New(stream.Config{})
	e.IngestBatch(ds.CERecords)
	s := serve.New(serve.Config{Source: e})
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)

	f.Add("astra-r01c01n1")
	f.Add("astra-r123c01n1")
	f.Add("")
	f.Add("..")
	f.Add("astra-r01c01n1/../../etc/passwd")
	f.Add(strings.Repeat("9", 4096))
	f.Add("astra-r\x00c01n1")
	f.Fuzz(func(t *testing.T, id string) {
		resp, err := http.Get(ts.URL + "/v1/nodes/" + url.PathEscape(id))
		if err != nil {
			t.Skip() // URL the client itself refuses to send
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("GET /v1/nodes/%q = %d", id, resp.StatusCode)
		}
	})
}
