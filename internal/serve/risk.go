package serve

import (
	"net/http"
	"strconv"

	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/topology"
)

// DefaultAtRiskLimit is the /v1/atrisk result size when no limit is
// given.
const DefaultAtRiskLimit = 20

// MaxAtRiskLimit caps ?limit= so a single request cannot demand an
// unbounded render.
const MaxAtRiskLimit = 1000

// riskEntry is one bank in operator-facing risk form: where it is, how
// hot the predictor thinks it is, and the load-bearing features behind
// the score (enough to sanity-check an alarm without a debugger).
type riskEntry struct {
	Node  string  `json:"node"`
	Slot  string  `json:"slot"`
	Rank  int     `json:"rank"`
	Bank  int     `json:"bank"`
	Score float64 `json:"score"`
	// CEs is the bank's lifetime error count; WindowCEs the count in the
	// rolling window; SpanHours first-to-last error extent.
	CEs       int     `json:"ces"`
	WindowCEs int     `json:"windowCEs"`
	SpanHours float64 `json:"spanHours"`
	// Spatial shape: distinct word addresses, words with multi-bit
	// patterns, distinct failing bit positions, rows, columns.
	Words         int `json:"words"`
	MultiBitWords int `json:"multiBitWords"`
	DistinctBits  int `json:"distinctBits"`
	DistinctRows  int `json:"distinctRows"`
	DistinctCols  int `json:"distinctCols"`
}

func viewRisk(bf *predict.BankFeatures, score float64) riskEntry {
	f := &bf.F
	return riskEntry{
		Node:          bf.Key.Node.String(),
		Slot:          bf.Key.Slot.Name(),
		Rank:          int(bf.Key.Rank),
		Bank:          int(bf.Key.Bank),
		Score:         score,
		CEs:           int(f.CEs),
		WindowCEs:     int(f.WindowCEs),
		SpanHours:     f.SpanHours,
		Words:         int(f.Words),
		MultiBitWords: int(f.MultiBitWords),
		DistinctBits:  int(f.DistinctBits),
		DistinctRows:  int(f.DistinctRows),
		DistinctCols:  int(f.DistinctCols),
	}
}

// atRiskResponse is the /v1/atrisk payload: the top banks by predicted
// failure risk, highest first.
type atRiskResponse struct {
	Predictor string      `json:"predictor"`
	Banks     int         `json:"banks"`
	Count     int         `json:"count"`
	AtRisk    []riskEntry `json:"atRisk"`
}

// renderAtRisk ranks the view's banks under the configured predictor
// and returns the top ?limit= (default DefaultAtRiskLimit). Scoring
// happens at render time over the immutable view, so swapping
// predictors never requires an engine rebuild; each request that does
// not revalidate with If-None-Match ranks the view again.
func (s *Server) renderAtRisk(v *stream.View, _ int, r *http.Request) (int, any) {
	limit := DefaultAtRiskLimit
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > MaxAtRiskLimit {
			return http.StatusBadRequest, errorBody{"limit must be an integer in [1, " + strconv.Itoa(MaxAtRiskLimit) + "]"}
		}
		limit = n
	}
	// The view's bank slice is shared and immutable; rank a copy.
	banks := append([]predict.BankFeatures(nil), v.Banks()...)
	scores := predict.SortByRisk(banks, s.predictor)
	if limit > len(banks) {
		limit = len(banks)
	}
	resp := atRiskResponse{
		Predictor: s.predictor.Name(),
		Banks:     len(banks),
		AtRisk:    make([]riskEntry, 0, limit),
	}
	for i := 0; i < limit; i++ {
		resp.AtRisk = append(resp.AtRisk, viewRisk(&banks[i], scores[i]))
	}
	resp.Count = len(resp.AtRisk)
	return http.StatusOK, resp
}

// nodeRiskResponse is the /v1/nodes/{id}/risk payload: every bank of
// one node scored, highest first, with the node's worst score on top.
type nodeRiskResponse struct {
	Node      string      `json:"node"`
	Predictor string      `json:"predictor"`
	MaxScore  float64     `json:"maxScore"`
	Banks     []riskEntry `json:"banks"`
}

func (s *Server) renderNodeRisk(v *stream.View, _ int, r *http.Request) (int, any) {
	id, err := topology.ParseNodeID(r.PathValue("id"))
	if err != nil {
		return http.StatusBadRequest, errorBody{err.Error()}
	}
	vb := v.Banks()
	var banks []predict.BankFeatures
	for i := range vb {
		if vb[i].Key.Node == id {
			banks = append(banks, vb[i])
		}
	}
	if len(banks) == 0 {
		return http.StatusNotFound, errorBody{"no records from node " + id.String()}
	}
	scores := predict.SortByRisk(banks, s.predictor)
	resp := nodeRiskResponse{
		Node:      id.String(),
		Predictor: s.predictor.Name(),
		MaxScore:  scores[0],
		Banks:     make([]riskEntry, 0, len(banks)),
	}
	for i := range banks {
		resp.Banks = append(resp.Banks, viewRisk(&banks[i], scores[i]))
	}
	return http.StatusOK, resp
}

// registerRiskMetrics exposes the live prediction surface: bank count,
// banks at or above the alarm threshold, and the fleet's worst score.
// Scores are computed at scrape time against the current fleet view, so
// the series never go stale and never block ingest.
func (s *Server) registerRiskMetrics() {
	scan := func() (banks int, atRisk int, maxScore float64) {
		vb := s.fleet.LiveView().Banks()
		for i := range vb {
			sc := s.predictor.Score(&vb[i].F)
			if sc >= s.riskThreshold {
				atRisk++
			}
			if sc > maxScore {
				maxScore = sc
			}
		}
		return len(vb), atRisk, maxScore
	}
	s.reg.NewGaugeFunc("astrad_predict_banks", "", "Banks with live prediction feature state.",
		func() float64 { b, _, _ := scan(); return float64(b) })
	s.reg.NewGaugeFunc("astrad_predict_atrisk", "", "Banks scoring at or above the alarm threshold under the serving predictor.",
		func() float64 { _, a, _ := scan(); return float64(a) })
	s.reg.NewGaugeFunc("astrad_predict_max_risk", "", "Highest bank risk score in the fleet under the serving predictor.",
		func() float64 { _, _, m := scan(); return m })
}

// DefaultRiskThreshold is the alarm threshold behind the
// astrad_predict_atrisk gauge when Config.RiskThreshold is zero: rung 5
// of the default rule ladder (sustained ≥256-CE multi-day activity),
// the precision/recall sweet spot on the pinned evaluation scenario.
const DefaultRiskThreshold = 0.625
