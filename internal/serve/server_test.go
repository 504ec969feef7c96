package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mce"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

var (
	fixOnce sync.Once
	fixDS   *dataset.Dataset
	fixErr  error
)

func fixture(t testing.TB) *dataset.Dataset {
	t.Helper()
	fixOnce.Do(func() {
		cfg := dataset.DefaultConfig(53)
		cfg.Nodes = 32
		fixDS, fixErr = dataset.Build(context.Background(), cfg)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDS
}

// clusterFixture is core.Cluster over records, the batch answer the
// served faults must equal.
func clusterFixture(t *testing.T, records []mce.CERecord) []core.Fault {
	t.Helper()
	faults, err := core.Cluster(context.Background(), records, core.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	return faults
}

// newTestServer ingests the fixture into an engine and serves it.
func newTestServer(t *testing.T) (*stream.Engine, *httptest.Server) {
	t.Helper()
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)
	s := serve.New(serve.Config{
		Source: e,
		ScanStats: func() syslog.ScanStats {
			return syslog.ScanStats{Lines: 12345, CEs: len(ds.CERecords), Malformed: 7}
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return e, ts
}

func get(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
		}
	}
}

func TestServerHealthz(t *testing.T) {
	e, ts := newTestServer(t)
	var h struct {
		Status  string `json:"status"`
		Records int    `json:"records"`
	}
	get(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" || h.Records != e.Summary().Records {
		t.Fatalf("healthz = %+v, want ok with %d records", h, e.Summary().Records)
	}
}

func TestServerFaults(t *testing.T) {
	_, ts := newTestServer(t)
	want := clusterFixture(t, fixture(t).CERecords)

	type faultJSON struct {
		Node    string `json:"node"`
		Slot    string `json:"slot"`
		Mode    string `json:"mode"`
		Addr    string `json:"addr"`
		NErrors int    `json:"nErrors"`
	}
	var all struct {
		Count  int         `json:"count"`
		Faults []faultJSON `json:"faults"`
	}
	get(t, ts.URL+"/v1/faults", http.StatusOK, &all)
	if all.Count != len(want) || len(all.Faults) != len(want) {
		t.Fatalf("faults count = %d/%d, want %d", all.Count, len(all.Faults), len(want))
	}
	// The payload is operator-facing: hostnames and mode names, not raw
	// Go enum values, and every node name feeds back into /v1/nodes/{id}.
	for i, f := range all.Faults {
		if f.Node != want[i].Node.String() || f.Slot != want[i].Slot.Name() || f.Mode != want[i].Mode.String() {
			t.Fatalf("fault[%d] view = %+v, want %v/%v/%v", i, f, want[i].Node, want[i].Slot, want[i].Mode)
		}
		if !strings.HasPrefix(f.Addr, "0x") {
			t.Fatalf("fault[%d] addr %q not hex-rendered", i, f.Addr)
		}
		if _, err := topology.ParseNodeID(f.Node); err != nil {
			t.Fatalf("fault[%d] node %q does not round-trip: %v", i, f.Node, err)
		}
	}

	wantBits := 0
	for _, f := range want {
		if f.Mode == core.ModeSingleBit {
			wantBits++
		}
	}
	var bits struct {
		Count  int         `json:"count"`
		Faults []faultJSON `json:"faults"`
	}
	get(t, ts.URL+"/v1/faults?mode=single-bit", http.StatusOK, &bits)
	if bits.Count != wantBits {
		t.Fatalf("single-bit count = %d, want %d", bits.Count, wantBits)
	}
	for _, f := range bits.Faults {
		if f.Mode != "single-bit" {
			t.Fatalf("mode filter leaked a %v fault", f.Mode)
		}
	}
	get(t, ts.URL+"/v1/faults?mode=nonsense", http.StatusBadRequest, nil)
}

func TestServerBreakdownAndFIT(t *testing.T) {
	e, ts := newTestServer(t)
	var sum stream.Summary
	get(t, ts.URL+"/v1/breakdown", http.StatusOK, &sum)
	want := e.Summary()
	if sum.Records != want.Records || sum.Faults != want.Faults || sum.FaultsByMode != want.FaultsByMode {
		t.Fatalf("breakdown = %+v, want %+v", sum, want)
	}

	var fit struct {
		Windowed    stream.WindowedFIT `json:"windowed"`
		Overall     core.FaultRates    `json:"overall"`
		SpanSeconds float64            `json:"spanSeconds"`
	}
	get(t, ts.URL+"/v1/fit", http.StatusOK, &fit)
	if fit.Overall.Degraded {
		t.Fatal("overall FIT degraded over a faulty fixture")
	}
	if fit.SpanSeconds <= 0 {
		t.Fatalf("spanSeconds = %v, want > 0", fit.SpanSeconds)
	}
	if wantFIT := e.LiveView().FIT; fit.Windowed != wantFIT {
		t.Fatalf("windowed FIT = %+v, want %+v", fit.Windowed, wantFIT)
	}
	span := want.Last.Sub(want.First)
	wantRates := core.AnalyzeFaultRates(clusterFixture(t, fixture(t).CERecords), 32*topology.SlotsPerNode, span)
	if fit.Overall != wantRates {
		t.Fatalf("overall FIT = %+v, want %+v", fit.Overall, wantRates)
	}
}

func TestServerNodes(t *testing.T) {
	_, ts := newTestServer(t)
	ds := fixture(t)

	seen := map[topology.NodeID]bool{}
	for _, r := range ds.CERecords {
		seen[r.Node] = true
	}
	known := ds.CERecords[0].Node
	var st struct {
		Node   string `json:"node"`
		CEs    int    `json:"ces"`
		Faults []struct {
			Mode string `json:"mode"`
		} `json:"faults"`
	}
	get(t, ts.URL+"/v1/nodes/"+known.String(), http.StatusOK, &st)
	wantCEs, wantFaults := 0, 0
	for _, r := range ds.CERecords {
		if r.Node == known {
			wantCEs++
		}
	}
	for _, f := range clusterFixture(t, ds.CERecords) {
		if f.Node == known {
			wantFaults++
		}
	}
	if st.Node != known.String() || st.CEs != wantCEs || len(st.Faults) != wantFaults {
		t.Fatalf("node status = %+v, want %d CEs and %d faults", st, wantCEs, wantFaults)
	}

	var silent topology.NodeID = -1
	for id := topology.NodeID(0); id < topology.Nodes; id++ {
		if !seen[id] {
			silent = id
			break
		}
	}
	if silent < 0 {
		t.Fatal("fixture covers every node; no silent node to probe")
	}
	get(t, ts.URL+"/v1/nodes/"+silent.String(), http.StatusNotFound, nil)
	get(t, ts.URL+"/v1/nodes/not-a-node", http.StatusBadRequest, nil)
	// A garbled host name is not an alias of the node it begins like.
	get(t, ts.URL+"/v1/nodes/astra-r03c11n2xyz", http.StatusBadRequest, nil)
}

func TestServerMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/faults", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/faults = %d, want 405", resp.StatusCode)
	}
}

func TestServerMetrics(t *testing.T) {
	e, ts := newTestServer(t)
	// Generate some traffic so the per-endpoint series are non-zero.
	get(t, ts.URL+"/healthz", http.StatusOK, nil)
	get(t, ts.URL+"/v1/faults", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	sum := e.Summary()
	for _, want := range []string{
		"# TYPE astrad_stream_records_total counter",
		"# TYPE astrad_open_faults gauge",
		"# TYPE astrad_http_request_seconds histogram",
		`astrad_open_faults{mode="single-bit"}`,
		`astrad_http_request_seconds_count{path="/healthz"} 1` + "\n",
		`astrad_http_request_seconds_bucket{path="/v1/faults",le="+Inf"}`,
		"astrad_ingest_lines_total 12345",
		"astrad_ingest_malformed_total 7",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, "astrad_http_requests_total") {
		t.Error("metrics still carry astrad_http_requests_total, a copy of the histogram's _count")
	}
	// The scrape-time counters must reflect the engine.
	var recLine string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "astrad_stream_records_total ") {
			recLine = line
		}
	}
	if want := "astrad_stream_records_total " + itoa(sum.Records); recLine != want {
		t.Errorf("records series = %q, want %q", recLine, want)
	}
}

// trailingSource is an engine whose served view is an older cut of it,
// as while an ingest batch holds the engine mutex: Seq, DIMMs and the
// engine's own Summary and Shed run ahead of the view LiveView returns.
type trailingSource struct {
	*stream.Engine
	view *stream.View
}

func (s trailingSource) LiveView() *stream.View { return s.view }

// TestMetricsReadServedView pins that a single-site /metrics reports the
// view the endpoints serve, not the engine ahead of it: the records,
// fault, window and shed series equal the trailing view's, and the lag
// gauge says how far it trails.
func TestMetricsReadServedView(t *testing.T) {
	ds := fixture(t)
	half := len(ds.CERecords) / 2
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords[:half])
	view := e.LiveView()
	e.IngestBatch(ds.CERecords[half:])
	e.NoteShed(3)
	ahead := e.Summary()
	if ahead.Records == view.Summary.Records || ahead.Faults == view.Summary.Faults || ahead.Shed == view.Summary.Shed {
		t.Fatalf("fixture: the engine (%+v) does not run ahead of its view (%+v)", ahead, view.Summary)
	}
	s := serve.New(serve.Config{Source: trailingSource{Engine: e, view: view}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := getFull(t, ts.URL+"/metrics", "")
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	sum := view.Summary
	want := []string{
		"astrad_stream_records_total " + itoa(sum.Records),
		"astrad_fault_escalations_total " + itoa(sum.Escalations),
		"astrad_faulty_nodes " + itoa(sum.FaultyNodes),
		"astrad_window_ce_count " + itoa(sum.WindowCount),
		"astrad_stream_shed_total " + itoa(sum.Shed),
		"astrad_view_lag_records " + strconv.FormatUint(e.Seq()-view.Seq, 10),
	}
	for m := core.FaultMode(0); m < core.NumFaultModes; m++ {
		want = append(want, `astrad_open_faults{mode="`+m.String()+`"} `+itoa(sum.FaultsByMode[m]))
	}
	for _, line := range want {
		if !strings.Contains(text, "\n"+line+"\n") {
			t.Errorf("metrics lack %q (the served view's value)", line)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// laggingSource serves a fixed view that trails its Seq by lag records,
// as an engine's cached view does while an ingest batch holds the engine.
type laggingSource struct {
	view *stream.View
	lag  uint64
}

func (s laggingSource) LiveView() *stream.View { return s.view }
func (s laggingSource) Seq() uint64            { return s.view.Seq + s.lag }
func (s laggingSource) DIMMs() int             { return 32 * topology.SlotsPerNode }

// TestStalenessHeaders pins how a stale view is served: as-is, with its
// age in X-Astra-Staleness and the records it trails by in
// X-Astra-Staleness-Records, on the rollup and the site-scoped paths
// alike. A current view carries neither header.
func TestStalenessHeaders(t *testing.T) {
	const age = 3 * time.Second
	view := &stream.View{
		Seq:     40,
		BuiltAt: time.Now().Add(-age),
		Summary: stream.Summary{Records: 40, Offered: 40},
	}
	for _, lag := range []uint64{7, 0} {
		s := serve.New(serve.Config{Source: laggingSource{view: view, lag: lag}})
		ts := httptest.NewServer(s.Handler())
		for _, path := range []string{"/v1/breakdown", "/v1/sites/default/breakdown"} {
			resp := getFull(t, ts.URL+path, "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("lag %d: GET %s = %d", lag, path, resp.StatusCode)
			}
			staleness := resp.Header.Get("X-Astra-Staleness")
			records := resp.Header.Get("X-Astra-Staleness-Records")
			if lag == 0 {
				if staleness != "" || records != "" {
					t.Fatalf("GET %s: current view carries staleness headers %q / %q", path, staleness, records)
				}
				continue
			}
			if records != strconv.FormatUint(lag, 10) {
				t.Fatalf("GET %s: X-Astra-Staleness-Records = %q, want %d", path, records, lag)
			}
			if d, err := time.ParseDuration(staleness); err != nil || d < age {
				t.Fatalf("GET %s: X-Astra-Staleness = %q, want a duration of at least %v", path, staleness, age)
			}
		}
		ts.Close()
	}
}
