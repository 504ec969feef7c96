package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/topology"
)

// healthRig serves two sites, one with a mutable health hook, the other
// permanently running.
type healthRig struct {
	mu sync.Mutex
	h  serve.SiteHealth
	ts *httptest.Server
}

func (r *healthRig) set(h serve.SiteHealth) {
	r.mu.Lock()
	r.h = h
	r.mu.Unlock()
}

func newHealthRig(t *testing.T) *healthRig {
	t.Helper()
	ds := fixture(t)
	mk := func() *stream.Engine {
		e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
		e.IngestBatch(ds.CERecords)
		return e
	}
	rig := &healthRig{h: serve.SiteHealth{State: serve.SiteRunning}}
	s := serve.New(serve.Config{Sites: []serve.Site{
		{ID: "alpha", Source: mk(), Health: func() serve.SiteHealth {
			rig.mu.Lock()
			defer rig.mu.Unlock()
			return rig.h
		}},
		{ID: "beta", Source: mk(), Health: func() serve.SiteHealth {
			return serve.SiteHealth{State: serve.SiteRunning}
		}},
	}})
	rig.ts = httptest.NewServer(s.Handler())
	t.Cleanup(rig.ts.Close)
	return rig
}

// TestSiteQuarantine503 pins the isolation contract on the read path: a
// site that is not running answers 503 with the supervision detail on
// every scoped endpoint, while the sibling site and the fleet rollup
// keep serving 200s.
func TestSiteQuarantine503(t *testing.T) {
	rig := newHealthRig(t)

	// Healthy: everything serves.
	get(t, rig.ts.URL+"/v1/sites/alpha/faults", http.StatusOK, nil)
	get(t, rig.ts.URL+"/v1/sites/beta/faults", http.StatusOK, nil)

	rig.set(serve.SiteHealth{
		State:          "quarantined",
		Restarts:       5,
		LastError:      "open syslog: no such file or directory",
		RetryInSeconds: 0,
	})

	for _, path := range []string{
		"/v1/sites/alpha/faults",
		"/v1/sites/alpha/breakdown",
		"/v1/sites/alpha/fit",
		"/v1/sites/alpha/nodes/nid00001",
	} {
		resp, err := http.Get(rig.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s = %d, want 503: %s", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("GET %s: no Retry-After header", path)
		}
		var down struct {
			Error  string           `json:"error"`
			Site   string           `json:"site"`
			Health serve.SiteHealth `json:"health"`
		}
		if err := json.Unmarshal(body, &down); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
		}
		if down.Site != "alpha" || down.Health.State != "quarantined" ||
			down.Health.Restarts != 5 || !strings.Contains(down.Health.LastError, "no such file") {
			t.Fatalf("GET %s: detail = %+v", path, down)
		}
	}

	// The healthy sibling, the rollup endpoints, and the inventory are
	// untouched by alpha's quarantine.
	get(t, rig.ts.URL+"/v1/sites/beta/faults", http.StatusOK, nil)
	get(t, rig.ts.URL+"/v1/faults", http.StatusOK, nil)
	var sites struct {
		Sites []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"sites"`
	}
	get(t, rig.ts.URL+"/v1/sites", http.StatusOK, &sites)
	if len(sites.Sites) != 2 || sites.Sites[0].State != "quarantined" || sites.Sites[1].State != "running" {
		t.Fatalf("/v1/sites = %+v", sites)
	}
}

// TestHealthzSiteLadder pins the /healthz ladder: per-site supervision
// entries, and degraded status exactly while any site is not running.
func TestHealthzSiteLadder(t *testing.T) {
	rig := newHealthRig(t)
	type health struct {
		Status string `json:"status"`
		Sites  []struct {
			ID    string `json:"id"`
			State string `json:"state"`
			serve.SiteHealth
		} `json:"sites"`
	}

	var h health
	get(t, rig.ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" || len(h.Sites) != 2 {
		t.Fatalf("healthy healthz = %+v", h)
	}

	rig.set(serve.SiteHealth{State: "backoff", Restarts: 2, LastError: "scan: boom", RetryInSeconds: 1.5})
	h = health{}
	get(t, rig.ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "degraded" {
		t.Fatalf("status = %q, want degraded while alpha backs off", h.Status)
	}
	if h.Sites[0].ID != "alpha" || h.Sites[0].State != "backoff" || h.Sites[1].State != "running" {
		t.Fatalf("ladder = %+v", h.Sites)
	}

	rig.set(serve.SiteHealth{State: serve.SiteRunning})
	h = health{}
	get(t, rig.ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("status = %q after recovery, want ok", h.Status)
	}
}

// TestSiteStateMetrics pins the supervision metric families.
func TestSiteStateMetrics(t *testing.T) {
	rig := newHealthRig(t)
	rig.set(serve.SiteHealth{State: "quarantined", Restarts: 3})
	resp, err := http.Get(rig.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`astrad_site_state{site="alpha"} 2`,
		`astrad_site_state{site="beta"} 0`,
		`astrad_site_restarts_total{site="alpha"} 3`,
		`astrad_site_restarts_total{site="beta"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestSiteLabelsEscaped serves sites whose ids hold a quote, a backslash
// and a newline: every site="..." label value in /metrics must be
// escaped as the text format requires, so that it unescapes back to its
// id, in every per-site family.
func TestSiteLabelsEscaped(t *testing.T) {
	ds := fixture(t)
	ids := []string{`a"b`, `c\d`, "e\nf"}
	var sites []serve.Site
	for _, id := range ids {
		e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
		e.IngestBatch(ds.CERecords[:10])
		sites = append(sites, serve.Site{ID: id, Source: e, Health: func() serve.SiteHealth {
			return serve.SiteHealth{State: serve.SiteRunning}
		}})
	}
	ts := httptest.NewServer(serve.New(serve.Config{Sites: sites}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	families := []string{"astrad_site_records_total", "astrad_site_shed_total", "astrad_site_faults",
		"astrad_site_state", "astrad_site_restarts_total"}
	seen := map[string]int{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.Contains(line, "site=") {
			continue
		}
		name, rest, ok := strings.Cut(line, `{site="`)
		if !ok {
			t.Fatalf("site label not at the start of a label set: %q", line)
		}
		id, tail, ok := unescapeLabel(rest)
		if !ok || !strings.HasPrefix(tail, "} ") {
			t.Fatalf("malformed site label value in %q", line)
		}
		seen[name+"/"+id]++
	}
	for _, f := range families {
		for _, id := range ids {
			if seen[f+"/"+id] != 1 {
				t.Errorf("%s: site %q has %d series, want 1", f, id, seen[f+"/"+id])
			}
		}
	}
	if len(seen) != len(families)*len(ids) {
		t.Errorf("site series %v, want %d families x %d sites", seen, len(families), len(ids))
	}
}

// unescapeLabel reads a label value up to its closing quote, undoing
// the text format's escapes; it returns what follows the quote.
func unescapeLabel(s string) (value, rest string, ok bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			return b.String(), s[i+1:], true
		case c == '\\' && i+1 < len(s):
			i++
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", false
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", false
}
