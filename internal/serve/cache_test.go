package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/topology"
)

// getFull performs a GET with optional If-None-Match and returns the
// response for header-level assertions.
func getFull(t *testing.T, url, inm string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestETagRoundTrip pins the caching contract: a GET carries a strong
// ETag; replaying it via If-None-Match yields 304 with no body while
// the engine is unchanged; after ingest advances the epoch, the same
// request yields a fresh 200 with a new ETag.
func TestETagRoundTrip(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords[:len(ds.CERecords)/2])
	s := serve.New(serve.Config{Source: e})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/faults", "/v1/breakdown", "/v1/fit", "/v1/sites"} {
		resp := getFull(t, ts.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("GET %s: no ETag", path)
		}
		body1, _ := io.ReadAll(resp.Body)

		not := getFull(t, ts.URL+path, etag)
		if not.StatusCode != http.StatusNotModified {
			t.Fatalf("GET %s If-None-Match=%s = %d, want 304", path, etag, not.StatusCode)
		}
		if b, _ := io.ReadAll(not.Body); len(b) != 0 {
			t.Fatalf("304 for %s carried a body: %q", path, b)
		}
		if got := not.Header.Get("ETag"); got != etag {
			t.Fatalf("304 ETag = %s, want %s", got, etag)
		}

		// Same epoch, no If-None-Match: full body again, byte-identical
		// (served from the response cache).
		again := getFull(t, ts.URL+path, "")
		body2, _ := io.ReadAll(again.Body)
		if string(body1) != string(body2) {
			t.Fatalf("GET %s: cached body diverges from first render", path)
		}
	}

	// Advance the epoch; the old ETag must stop matching.
	etag := getFull(t, ts.URL+"/v1/breakdown", "").Header.Get("ETag")
	e.IngestBatch(ds.CERecords[len(ds.CERecords)/2:])
	resp := getFull(t, ts.URL+"/v1/breakdown", etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match = %d, want 200", resp.StatusCode)
	}
	if newTag := resp.Header.Get("ETag"); newTag == etag {
		t.Fatal("ETag did not change after ingest advanced the epoch")
	}
}

// TestETagWildcardAndList covers the remaining If-None-Match forms: a
// list containing the current tag, and the * wildcard.
func TestETagWildcardAndList(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)
	s := serve.New(serve.Config{Source: e})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	etag := getFull(t, ts.URL+"/v1/fit", "").Header.Get("ETag")
	if resp := getFull(t, ts.URL+"/v1/fit", `"other", `+etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("list If-None-Match = %d, want 304", resp.StatusCode)
	}
	if resp := getFull(t, ts.URL+"/v1/fit", "*"); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("wildcard If-None-Match = %d, want 304", resp.StatusCode)
	}
	// A compressing proxy weakens the tag it forwards; If-None-Match uses
	// the weak comparison, so W/"astra-…" still matches "astra-…".
	if resp := getFull(t, ts.URL+"/v1/fit", `"other", W/`+etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("weak If-None-Match = %d, want 304", resp.StatusCode)
	}
	if resp := getFull(t, ts.URL+"/v1/fit", `"astra-dead"`); resp.StatusCode != http.StatusOK {
		t.Fatalf("non-matching If-None-Match = %d, want 200", resp.StatusCode)
	}
}

// TestCacheMetrics checks the hit/miss/304 accounting surfaces in
// /metrics: a cold GET is a miss, a warm one a hit, a conditional one a
// 304.
func TestCacheMetrics(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)
	s := serve.New(serve.Config{Source: e})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	etag := getFull(t, ts.URL+"/v1/faults", "").Header.Get("ETag") // miss
	getFull(t, ts.URL+"/v1/faults", "")                            // hit
	getFull(t, ts.URL+"/v1/faults", etag)                          // 304

	if s.Registry() == nil {
		t.Fatal("no registry")
	}
	resp := getFull(t, ts.URL+"/metrics", "")
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"astrad_cache_misses_total 1",
		"astrad_cache_hits_total 1",
		"astrad_cache_not_modified_total 1",
	} {
		if !contains(string(body), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestMultiSiteFederation serves two sites from one daemon and checks
// the three view scopes: per-site endpoints see only their site, the
// legacy endpoints roll both up, and /v1/sites inventories them.
func TestMultiSiteFederation(t *testing.T) {
	ds := fixture(t)
	half := len(ds.CERecords) / 2
	a := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	b := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	a.IngestBatch(ds.CERecords[:half])
	b.IngestBatch(ds.CERecords[half:])
	s := serve.New(serve.Config{Sites: []serve.Site{
		{ID: "alpha", Source: a},
		{ID: "beta", Source: b},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sites struct {
		Count int `json:"count"`
		Sites []struct {
			ID      string `json:"id"`
			Records int    `json:"records"`
		} `json:"sites"`
	}
	get(t, ts.URL+"/v1/sites", http.StatusOK, &sites)
	if sites.Count != 2 || sites.Sites[0].ID != "alpha" || sites.Sites[1].ID != "beta" {
		t.Fatalf("bad site inventory: %+v", sites)
	}
	if sites.Sites[0].Records != half || sites.Sites[1].Records != len(ds.CERecords)-half {
		t.Fatalf("per-site record counts wrong: %+v", sites.Sites)
	}

	var sum stream.Summary
	get(t, ts.URL+"/v1/sites/alpha/breakdown", http.StatusOK, &sum)
	if sum.Records != half {
		t.Fatalf("site-scoped breakdown records = %d, want %d", sum.Records, half)
	}
	var rollup stream.Summary
	get(t, ts.URL+"/v1/breakdown", http.StatusOK, &rollup)
	if rollup.Records != len(ds.CERecords) {
		t.Fatalf("rollup records = %d, want %d", rollup.Records, len(ds.CERecords))
	}
	aFaults := clusterFixture(t, ds.CERecords[:half])
	bFaults := clusterFixture(t, ds.CERecords[half:])
	wantFaults := len(aFaults) + len(bFaults)
	if rollup.Faults != wantFaults {
		t.Fatalf("rollup faults = %d, want %d", rollup.Faults, wantFaults)
	}

	var faults struct {
		Count int `json:"count"`
	}
	get(t, ts.URL+"/v1/sites/beta/faults", http.StatusOK, &faults)
	if faults.Count != len(bFaults) {
		t.Fatalf("site-scoped faults = %d, want %d", faults.Count, len(bFaults))
	}
	get(t, ts.URL+"/v1/sites/nope/faults", http.StatusNotFound, nil)

	// Per-site metrics carry the site label; legacy series aggregate.
	resp := getFull(t, ts.URL+"/metrics", "")
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`astrad_site_records_total{site="alpha"}`,
		`astrad_site_records_total{site="beta"}`,
	} {
		if !contains(string(body), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// Site ETags are independent: ingesting into beta invalidates the
	// rollup and beta scopes, alpha's tag keeps matching.
	alphaTag := getFull(t, ts.URL+"/v1/sites/alpha/breakdown", "").Header.Get("ETag")
	rollTag := getFull(t, ts.URL+"/v1/breakdown", "").Header.Get("ETag")
	b.IngestBatch(ds.CERecords[:1])
	if resp := getFull(t, ts.URL+"/v1/sites/alpha/breakdown", alphaTag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("alpha scope invalidated by beta ingest: %d", resp.StatusCode)
	}
	if resp := getFull(t, ts.URL+"/v1/breakdown", rollTag); resp.StatusCode != http.StatusOK {
		t.Fatalf("rollup scope not invalidated by beta ingest: %d", resp.StatusCode)
	}
}

// TestMultiSiteNodeRollup checks /v1/nodes/{id} on a federated server
// resolves nodes from the merged view regardless of owning site.
func TestMultiSiteNodeRollup(t *testing.T) {
	ds := fixture(t)
	half := len(ds.CERecords) / 2
	a := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	b := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	a.IngestBatch(ds.CERecords[:half])
	b.IngestBatch(ds.CERecords[half:])
	s := serve.New(serve.Config{Sites: []serve.Site{
		{ID: "alpha", Source: a},
		{ID: "beta", Source: b},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	perNode := map[topology.NodeID]int{}
	for _, r := range ds.CERecords {
		perNode[r.Node]++
	}
	checked := 0
	for id, want := range perNode {
		var resp struct {
			CEs int `json:"ces"`
		}
		get(t, ts.URL+"/v1/nodes/"+id.String(), http.StatusOK, &resp)
		if resp.CEs != want {
			t.Fatalf("rollup node %v CEs = %d, want %d", id, resp.CEs, want)
		}
		checked++
		if checked >= 5 {
			break
		}
	}
}

func TestRespCacheReset(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)
	s := serve.New(serve.Config{Source: e})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A flood of distinct query strings must not balloon the cache: the
	// server still answers every request correctly (cap behavior is
	// internal; correctness is what's observable).
	for i := 0; i < 50; i++ {
		var faults struct {
			Count int `json:"count"`
		}
		get(t, ts.URL+"/v1/faults?mode=single-bit&x="+strconv.Itoa(i), http.StatusOK, &faults)
	}
}
