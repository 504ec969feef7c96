package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/topology"
)

type riskEntryJSON struct {
	Node  string  `json:"node"`
	Score float64 `json:"score"`
	CEs   int     `json:"ces"`
}

type atRiskJSON struct {
	Predictor string          `json:"predictor"`
	Banks     int             `json:"banks"`
	Count     int             `json:"count"`
	AtRisk    []riskEntryJSON `json:"atRisk"`
}

func TestAtRiskEndpoint(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{})
	e.IngestBatch(ds.CERecords)
	s := serve.New(serve.Config{Source: e})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	resp, body := get("/v1/atrisk")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/atrisk = %d: %s", resp.StatusCode, body)
	}
	var ar atRiskJSON
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Predictor != "rule-ladder" {
		t.Fatalf("predictor = %q", ar.Predictor)
	}
	if ar.Banks == 0 || ar.Count == 0 || ar.Count != len(ar.AtRisk) {
		t.Fatalf("banks=%d count=%d len=%d", ar.Banks, ar.Count, len(ar.AtRisk))
	}
	if ar.Count > serve.DefaultAtRiskLimit {
		t.Fatalf("default limit not applied: %d entries", ar.Count)
	}
	for i := 1; i < len(ar.AtRisk); i++ {
		if ar.AtRisk[i].Score > ar.AtRisk[i-1].Score {
			t.Fatalf("ranking not descending at %d", i)
		}
	}

	resp, body = get("/v1/atrisk?limit=3")
	var ar3 atRiskJSON
	if err := json.Unmarshal(body, &ar3); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ar3.Count != 3 {
		t.Fatalf("limit=3: code=%d count=%d", resp.StatusCode, ar3.Count)
	}
	if ar3.AtRisk[0] != ar.AtRisk[0] {
		t.Fatal("top entry unstable across limits")
	}

	for _, bad := range []string{"0", "-1", "1001", "banana", "3.5", ""} {
		resp, _ := get("/v1/atrisk?limit=" + url.QueryEscape(bad))
		want := http.StatusBadRequest
		if bad == "" {
			want = http.StatusOK // empty value means default
		}
		if resp.StatusCode != want {
			t.Fatalf("limit=%q: code=%d want %d", bad, resp.StatusCode, want)
		}
	}

	// The top-ranked node's per-node risk view agrees with the ranking.
	resp, body = get("/v1/nodes/" + ar.AtRisk[0].Node + "/risk")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node risk = %d: %s", resp.StatusCode, body)
	}
	var nr struct {
		Node     string          `json:"node"`
		MaxScore float64         `json:"maxScore"`
		Banks    []riskEntryJSON `json:"banks"`
	}
	if err := json.Unmarshal(body, &nr); err != nil {
		t.Fatal(err)
	}
	if nr.Node != ar.AtRisk[0].Node || nr.MaxScore != ar.AtRisk[0].Score || len(nr.Banks) == 0 {
		t.Fatalf("node risk mismatch: %+v vs top %+v", nr, ar.AtRisk[0])
	}

	// A parseable hostname with no records: 404. The fixture covers
	// nodes 0..31, so a high rack is guaranteed silent.
	if resp, _ := get("/v1/nodes/" + topology.NodeID(topology.Nodes-1).String() + "/risk"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node risk = %d", resp.StatusCode)
	}
	for _, id := range []string{"not-a-node", "astra-r03c11n2xyz"} {
		if resp, _ := get("/v1/nodes/" + id + "/risk"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed node %q risk = %d", id, resp.StatusCode)
		}
	}

	// astrad_predict_* series are exported and the bank gauge is live.
	_, body = get("/metrics")
	ms := string(body)
	for _, series := range []string{"astrad_predict_banks", "astrad_predict_atrisk", "astrad_predict_max_risk"} {
		if !strings.Contains(ms, series) {
			t.Fatalf("metrics missing %s", series)
		}
	}
}

// TestAtRiskCustomPredictor: a wired predictor replaces the default
// ladder, visible in the payload's predictor name.
func TestAtRiskCustomPredictor(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{})
	e.IngestBatch(ds.CERecords)
	// A tiny synthetic training set (heavy banks fail, light ones do
	// not) is enough to produce a valid model to wire in.
	var samples []predict.Sample
	for i := 0; i < 40; i++ {
		f := predict.Features{CEs: float64(1 + i%8)}
		if i%2 == 0 {
			f = predict.Features{CEs: 5000 + float64(i), SpanHours: 1000, ActiveDays: 40}
		}
		samples = append(samples, predict.Sample{X: f.Vector(nil), Label: i%2 == 0})
	}
	m, err := predict.TrainLogReg(samples, predict.DefaultTrainConfig(53))
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Source: e, Predictor: m})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/atrisk?limit=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ar atRiskJSON
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Predictor != m.Name() {
		t.Fatalf("predictor = %q want %q", ar.Predictor, m.Name())
	}
}

// FuzzRiskEndpoint hammers the risk endpoints with arbitrary limits and
// node ids; any 5xx is a bug (4xx-never-5xx, like FuzzNodePath).
func FuzzRiskEndpoint(f *testing.F) {
	ds := fixture(f)
	e := stream.New(stream.Config{})
	e.IngestBatch(ds.CERecords)
	s := serve.New(serve.Config{Source: e})
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)

	f.Add("20", "astra-r01c01n1")
	f.Add("0", "")
	f.Add("-5", "..")
	f.Add("99999999999999999999", "astra-r01c01n1/../../etc")
	f.Add("1e3", strings.Repeat("9", 4096))
	f.Add("%31", "astra-r\x00c01n1")
	f.Fuzz(func(t *testing.T, limit, id string) {
		for _, path := range []string{
			"/v1/atrisk?limit=" + url.QueryEscape(limit),
			"/v1/nodes/" + url.PathEscape(id) + "/risk",
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				continue // URL the client itself refuses to send
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("GET %s = %d", path, resp.StatusCode)
			}
		}
	})
}
