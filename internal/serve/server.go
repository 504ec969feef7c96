package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// Source is the engine surface the server reads: every answer about the
// engine, /metrics included, comes from its view. A *stream.Engine
// satisfies it; a daemon wraps one to swap engines under the server
// (astrad's supervised restarts), and tests substitute doubles.
type Source interface {
	// LiveView returns a current or recent immutable view (never blocks
	// behind ingest; see stream.Engine.LiveView).
	LiveView() *stream.View
	// Seq is the state-change counter views are compared against.
	Seq() uint64
	// DIMMs is the monitored device population (FIT denominator).
	DIMMs() int
}

// SiteHealth is one site's position in the host's supervision ladder.
// The server does not supervise anything itself; the daemon reports
// through the hook and the server translates the state into HTTP
// behavior (503 on the site's endpoints, degraded /healthz, metrics).
type SiteHealth struct {
	// State is "running", "backoff", "quarantined" or "stopped"
	// (supervise.State strings). Anything but "running" makes the site's
	// scoped endpoints answer 503.
	State string `json:"state"`
	// Restarts counts supervised restarts of the site's pipeline.
	Restarts uint64 `json:"restarts"`
	// LastError is the most recent pipeline failure, rendered.
	LastError string `json:"lastError,omitempty"`
	// RetryInSeconds is the time until the next restart attempt while the
	// site is backing off.
	RetryInSeconds float64 `json:"retryInSeconds,omitempty"`
}

// SiteRunning is the SiteHealth state in which a site serves normally.
const SiteRunning = "running"

// Site is one federated fleet served by a multi-site daemon.
type Site struct {
	// ID names the site in /v1/sites URLs and per-site metrics.
	ID string
	// Source is the site's engine.
	Source Source
	// Health, when set, reports the site's supervision state. A site
	// whose State is not SiteRunning gets 503 + detail on its scoped
	// endpoints and flips /healthz to degraded; nil means always running.
	Health func() SiteHealth
}

// Config assembles a Server.
type Config struct {
	// Source is the single-site arrangement: the one engine to serve
	// (a *stream.Engine, or anything else satisfying Source). Exactly
	// one of Source or Sites must be set.
	Source Source
	// Sites serves several federated fleets from one daemon: each gets
	// site-scoped endpoints under /v1/sites/{id}/, and the legacy /v1
	// endpoints become the cross-site rollup.
	Sites []Site
	// Logger receives structured request logs; nil means slog.Default().
	Logger *slog.Logger
	// ScanStats, when set, supplies the ingest path's accounting for
	// /metrics (lines, malformed, duplicates, reorder drops).
	ScanStats func() syslog.ScanStats
	// Overload, when set, supplies the admission layer's state (queue
	// depth, watermarks, shed counts, checkpoint-breaker position) for
	// /healthz and /metrics.
	Overload func() overload.Status
	// Predictor scores bank feature vectors for /v1/atrisk,
	// /v1/nodes/{id}/risk and the astrad_predict_* metrics; nil means
	// predict.DefaultRuleLadder(). Scoring happens at render time over
	// immutable views, so the predictor must be safe for concurrent use
	// (the rule ladder and trained models are: Score is read-only).
	Predictor predict.Predictor
	// RiskThreshold is the alarm bar behind the astrad_predict_atrisk
	// gauge; 0 means DefaultRiskThreshold.
	RiskThreshold float64
}

// Server exposes a stream.Engine over HTTP: JSON analyses under /v1,
// liveness under /healthz, and Prometheus-text metrics under /metrics.
// Every endpoint is instrumented with a per-endpoint latency histogram
// and capped to 64 in-flight requests.
//
// Reads are snapshot-based: handlers serve an immutable stream.View, so
// a herd of API clients never contends with ingest on the engine mutex.
// When ingest holds the engine (a batch in flight), the previous view is
// served as-is and the response carries X-Astra-Staleness (the view's
// age) and X-Astra-Staleness-Records (how many records it trails by) —
// stale data is served honestly, never silently.
type Server struct {
	sites []*siteState
	// fleet is what the unscoped endpoints, /healthz and the unlabelled
	// metrics read: the one site's source, or the rollup of several.
	fleet     Source
	log       *slog.Logger
	reg       *Registry
	scanStats func() syslog.ScanStats
	ovl       func() overload.Status
	mux       *http.ServeMux

	notModified *Counter

	predictor     predict.Predictor
	riskThreshold float64
}

// siteState is one served fleet.
type siteState struct {
	id     string
	src    Source
	health func() SiteHealth
}

// currentHealth resolves the site's supervision state (always running
// when the host wired no hook).
func (st *siteState) currentHealth() SiteHealth {
	if st.health == nil {
		return SiteHealth{State: SiteRunning}
	}
	return st.health()
}

// New builds a server around one source or a site set.
func New(cfg Config) *Server {
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	s := &Server{
		log:       log,
		reg:       NewRegistry(),
		scanStats: cfg.ScanStats,
		ovl:       cfg.Overload,
		mux:       http.NewServeMux(),

		predictor:     cfg.Predictor,
		riskThreshold: cfg.RiskThreshold,
	}
	if s.predictor == nil {
		s.predictor = predict.DefaultRuleLadder()
	}
	if s.riskThreshold <= 0 {
		s.riskThreshold = DefaultRiskThreshold
	}
	switch {
	case len(cfg.Sites) > 0:
		for _, site := range cfg.Sites {
			s.sites = append(s.sites, &siteState{id: site.ID, src: site.Source, health: site.Health})
		}
	default:
		s.sites = []*siteState{{id: "default", src: cfg.Source}}
	}
	s.fleet = s.sites[0].src
	if len(s.sites) > 1 {
		s.fleet = &rollup{sites: s.sites}
	}
	s.notModified = s.reg.NewCounter("astrad_cache_not_modified_total", "", "GETs answered 304 via If-None-Match.")
	s.registerMetrics()
	s.registerRiskMetrics()
	s.route("/healthz", s.handleHealthz)
	s.route("/v1/faults", s.read(false, renderFaults))
	s.route("/v1/breakdown", s.read(false, renderBreakdown))
	s.route("/v1/fit", s.read(false, renderFIT))
	s.route("/v1/nodes/{id}", s.read(false, renderNode))
	s.route("/v1/nodes/{id}/risk", s.read(false, s.renderNodeRisk))
	s.route("/v1/atrisk", s.read(false, s.renderAtRisk))
	s.route("/v1/sites", s.read(false, s.renderSites))
	s.route("/v1/sites/{site}/faults", s.read(true, renderFaults))
	s.route("/v1/sites/{site}/breakdown", s.read(true, renderBreakdown))
	s.route("/v1/sites/{site}/fit", s.read(true, renderFIT))
	s.route("/v1/sites/{site}/nodes/{id}", s.read(true, renderNode))
	s.route("/v1/sites/{site}/nodes/{id}/risk", s.read(true, s.renderNodeRisk))
	s.route("/v1/sites/{site}/atrisk", s.read(true, s.renderAtRisk))
	s.route("/metrics", s.handleMetrics)
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry so the host process can
// attach its own series (checkpoint age, ingest rate, ...).
func (s *Server) Registry() *Registry { return s.reg }

// route installs a protected, instrumented GET handler at path. Inside
// out: the handler itself, the per-endpoint concurrency cap (innermost
// so a rejection is cheap), instrumentation, and the panic backstop
// outermost.
func (s *Server) route(path string, h http.HandlerFunc) {
	labels := label("path", path)
	lat := s.reg.NewHistogram("astrad_http_request_seconds", labels, "HTTP request latency in seconds, by endpoint.", nil)
	rejected := s.reg.NewCounter("astrad_http_rejected_total", labels, "Requests refused with 503 at the per-endpoint concurrency cap.")
	panics := s.reg.NewCounter("astrad_http_panics_total", labels, "Handler panics recovered into 500s.")
	capped := limited(maxConcurrent, rejected, h)
	instrumented := func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		capped(w, r)
		d := time.Since(start)
		lat.Observe(d.Seconds())
		s.log.Debug("request", "path", r.URL.Path, "dur", d)
	}
	s.mux.HandleFunc("GET "+path, recovered(s, panics, instrumented))
}

// rollup is a multi-site server's fleet: its view is the sites' views
// merged, rebuilt at most once per fleet epoch however many readers ask.
// Each site view is that site's own consistent cut; the rollup composes
// whatever cuts are current, and its Seq is their sum, so it can only
// advance.
type rollup struct {
	sites  []*siteState
	mu     sync.Mutex
	merged *stream.View
}

func (f *rollup) LiveView() *stream.View {
	f.mu.Lock()
	defer f.mu.Unlock()
	views := make([]*stream.View, len(f.sites))
	var seq uint64
	for i, st := range f.sites {
		views[i] = st.src.LiveView()
		seq += views[i].Seq
	}
	if f.merged == nil || f.merged.Seq != seq {
		f.merged = stream.MergeViews(f.DIMMs(), views...)
	}
	return f.merged
}

// Seq sums the per-site state counters: the rollup epoch.
func (f *rollup) Seq() uint64 {
	var seq uint64
	for _, st := range f.sites {
		seq += st.src.Seq()
	}
	return seq
}

// DIMMs sums the per-site device populations.
func (f *rollup) DIMMs() int {
	d := 0
	for _, st := range f.sites {
		d += st.src.DIMMs()
	}
	return d
}

// liveView fetches src's view to answer from, with lag the state changes
// it trails src by. A trailing view (ingest held the engine, so the
// reader got the previous view rather than waiting behind the engine
// mutex) is served with its age in X-Astra-Staleness and lag in
// X-Astra-Staleness-Records.
func liveView(w http.ResponseWriter, src Source) (v *stream.View, lag uint64) {
	v = src.LiveView()
	if lag = src.Seq() - v.Seq; lag > 0 {
		w.Header().Set("X-Astra-Staleness", time.Since(v.BuiltAt).String())
		w.Header().Set("X-Astra-Staleness-Records", strconv.FormatUint(lag, 10))
	}
	return v, lag
}

// siteByID resolves a /v1/sites/{site}/ path segment.
func (s *Server) siteByID(id string) *siteState {
	for _, st := range s.sites {
		if st.id == id {
			return st
		}
	}
	return nil
}

// renderFunc produces one JSON response from an immutable view: pure in
// the view, so the answer changes only when the view's epoch does.
type renderFunc func(v *stream.View, dimms int, r *http.Request) (int, any)

// read answers a GET by rendering a view: siteScoped routes resolve
// {site} from the path and serve that site's view, the others the
// fleet's. The ETag is the view epoch, and If-None-Match answers 304
// without rendering; any other request renders the view afresh.
func (s *Server) read(siteScoped bool, render renderFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		src := s.fleet
		if siteScoped {
			site := s.siteByID(r.PathValue("site"))
			if site == nil {
				writeJSON(w, http.StatusNotFound, errorBody{"unknown site " + r.PathValue("site")})
				return
			}
			if h := site.currentHealth(); h.State != SiteRunning {
				// The site's pipeline is down or quarantined: its data is
				// frozen at the last checkpoint, so refuse the read with the
				// supervision detail instead of serving it as current. The
				// fleet rollup and /v1/sites stay best-effort.
				retry := h.RetryInSeconds
				if retry < 1 {
					retry = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(int(retry+0.5)))
				writeJSON(w, http.StatusServiceUnavailable, siteDownBody{
					Error:  "site " + site.id + " is " + h.State,
					Site:   site.id,
					Health: h,
				})
				return
			}
			src = site.src
		}
		v, _ := liveView(w, src)
		etag := `"astra-` + strconv.FormatUint(v.Seq, 16) + `"`
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache")
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			s.notModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		code, payload := render(v, src.DIMMs(), r)
		writeJSON(w, code, payload)
	}
}

// etagMatch implements If-None-Match: a literal *, or any entity-tag in
// the comma-separated list that matches the current tag under the weak
// comparison RFC 9110 §13.1.2 prescribes for If-None-Match — opaque tags
// compared with any W/ prefix ignored, so a tag a compressing proxy
// weakened still revalidates.
func etagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == etag {
			return true
		}
	}
	return false
}

// registerMetrics wires the served view's aggregates — and, when
// available, the scanner's corruption accounting — into the registry.
// Values are read at scrape time from the view a reader would be served,
// so /metrics agrees with the endpoints and a scrape never waits on an
// engine mutex behind an ingest batch.
func (s *Server) registerMetrics() {
	// The unlabelled series report the fleet (on a multi-site daemon,
	// the all-sites rollup); per-site series carry a site label
	// alongside.
	sum := func() stream.Summary { return s.fleet.LiveView().Summary }
	s.reg.NewCounterFunc("astrad_stream_records_total", "", "CE records ingested into the clustering engine.",
		func() float64 { return float64(sum().Records) })
	s.reg.NewCounterFunc("astrad_fault_escalations_total", "", "Observed per-bank fault-mode escalations.",
		func() float64 { return float64(sum().Escalations) })
	for m := core.FaultMode(0); m < core.NumFaultModes; m++ {
		s.reg.NewGaugeFunc("astrad_open_faults", label("mode", m.String()), "Live fault count by observable mode.",
			func() float64 { return float64(sum().FaultsByMode[m]) })
	}
	s.reg.NewGaugeFunc("astrad_faulty_nodes", "", "Nodes with at least one live fault.",
		func() float64 { return float64(sum().FaultyNodes) })
	s.reg.NewGaugeFunc("astrad_window_ce_count", "", "CE records inside the rolling event-time window.",
		func() float64 { return float64(sum().WindowCount) })
	s.reg.NewGaugeFunc("astrad_window_ce_rate", "", "CE records per second over the rolling event-time window.",
		func() float64 { return sum().WindowRate })
	s.reg.NewCounterFunc("astrad_stream_shed_total", "", "CE records shed at admission and charged to the engine's degraded accounting.",
		func() float64 { return float64(sum().Shed) })
	s.reg.NewGaugeFunc("astrad_view_lag_records", "", "State changes the currently served view trails the engine by.",
		func() float64 {
			v := s.fleet.LiveView()
			return float64(s.fleet.Seq() - v.Seq)
		})
	if len(s.sites) > 1 {
		for _, st := range s.sites {
			site := label("site", st.id)
			siteSum := func() stream.Summary { return st.src.LiveView().Summary }
			s.reg.NewCounterFunc("astrad_site_records_total", site, "CE records ingested, by site.",
				func() float64 { return float64(siteSum().Records) })
			s.reg.NewCounterFunc("astrad_site_shed_total", site, "Records shed, by site.",
				func() float64 { return float64(siteSum().Shed) })
			s.reg.NewGaugeFunc("astrad_site_faults", site, "Live fault count, by site.",
				func() float64 { return float64(siteSum().Faults) })
		}
	}
	for _, st := range s.sites {
		if st.health == nil {
			continue
		}
		site := label("site", st.id)
		s.reg.NewGaugeFunc("astrad_site_state", site, "Supervision state of the site's ingest pipeline: 0 running, 1 backoff, 2 quarantined, 3 stopped.",
			func() float64 {
				switch st.currentHealth().State {
				case "backoff":
					return 1
				case "quarantined":
					return 2
				case "stopped":
					return 3
				}
				return 0
			})
		s.reg.NewCounterFunc("astrad_site_restarts_total", site, "Supervised restarts of the site's ingest pipeline.",
			func() float64 { return float64(st.currentHealth().Restarts) })
	}

	if s.ovl != nil {
		ost := s.ovl
		queue := []struct {
			name, help string
			counter    bool
			get        func(overload.QueueStats) float64
		}{
			{"astrad_admission_offered_total", "Records offered to the admission queue.", true,
				func(q overload.QueueStats) float64 { return float64(q.Offered) }},
			{"astrad_admission_admitted_total", "Records admitted past the watermarks.", true,
				func(q overload.QueueStats) float64 { return float64(q.Admitted) }},
			{"astrad_admission_drained_total", "Records drained into the engine.", true,
				func(q overload.QueueStats) float64 { return float64(q.Drained) }},
			{"astrad_admission_shed_total", "Records shed (rejected plus evicted) under overload.", true,
				func(q overload.QueueStats) float64 { return float64(q.Shed) }},
			{"astrad_admission_saturations_total", "Times the queue crossed its high watermark into shedding.", true,
				func(q overload.QueueStats) float64 { return float64(q.Saturations) }},
			{"astrad_admission_queue_depth", "Records waiting in the admission queue.", false,
				func(q overload.QueueStats) float64 { return float64(q.Depth) }},
			{"astrad_admission_queue_capacity", "Admission queue capacity.", false,
				func(q overload.QueueStats) float64 { return float64(q.Capacity) }},
			{"astrad_admission_saturated", "1 while the queue is between its watermarks shedding load.", false,
				func(q overload.QueueStats) float64 {
					if q.Saturated {
						return 1
					}
					return 0
				}},
		}
		for _, m := range queue {
			get := m.get
			if m.counter {
				s.reg.NewCounterFunc(m.name, "", m.help, func() float64 { return get(ost().Queue) })
			} else {
				s.reg.NewGaugeFunc(m.name, "", m.help, func() float64 { return get(ost().Queue) })
			}
		}
		s.reg.NewGaugeFunc("astrad_checkpoint_breaker_state", "", "Checkpoint circuit breaker: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				switch ost().Breaker.State {
				case overload.BreakerOpen.String():
					return 2
				case overload.BreakerHalfOpen.String():
					return 1
				}
				return 0
			})
		s.reg.NewCounterFunc("astrad_checkpoint_breaker_opens_total", "", "Times the checkpoint breaker tripped open.",
			func() float64 { return float64(ost().Breaker.Opens) })
		s.reg.NewCounterFunc("astrad_checkpoint_breaker_rejected_total", "", "Checkpoint attempts refused while the breaker was open.",
			func() float64 { return float64(ost().Breaker.Rejected) })
	}

	if s.scanStats == nil {
		return
	}
	st := s.scanStats
	ingest := []struct {
		name, help string
		get        func(syslog.ScanStats) int
	}{
		{"astrad_ingest_lines_total", "Syslog lines consumed.", func(v syslog.ScanStats) int { return v.Lines }},
		{"astrad_ingest_ces_total", "Well-formed CE records scanned.", func(v syslog.ScanStats) int { return v.CEs }},
		{"astrad_ingest_malformed_total", "Record lines that failed to parse.", func(v syslog.ScanStats) int { return v.Malformed }},
		{"astrad_ingest_duplicated_total", "Record lines suppressed as relay duplicates.", func(v syslog.ScanStats) int { return v.Duplicated }},
		{"astrad_ingest_reordered_total", "Records resequenced within the reorder window.", func(v syslog.ScanStats) int { return v.Reordered }},
		{"astrad_ingest_dropped_out_of_order_total", "Records dropped as too late to resequence.", func(v syslog.ScanStats) int { return v.DroppedOutOfOrder }},
	}
	for _, m := range ingest {
		get := m.get
		s.reg.NewCounterFunc(m.name, "", m.help, func() float64 { return float64(get(st())) })
	}
}

// writeJSON answers with v as indented JSON and a closing newline. It
// marshals before writing anything, so a value that does not marshal
// becomes a 500 carrying the error.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.MarshalIndent(errorBody{err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
}

// siteDownBody is the 503 payload for a site whose pipeline is not
// running: enough detail for an operator to tell a restarting site (come
// back shortly) from a quarantined one (page someone).
type siteDownBody struct {
	Error  string     `json:"error"`
	Site   string     `json:"site"`
	Health SiteHealth `json:"health"`
}

// healthResponse is the /healthz body. Status is "ok", "degraded"
// (checkpoint breaker not closed, or served views older than the
// staleness bound, or records already shed), or "shedding" (the
// admission queue is actively between its watermarks refusing load).
// The response is always 200: health is reported, not enforced — load
// balancers act on the body, humans on the detail fields.
type healthResponse struct {
	Status  string `json:"status"`
	Records int    `json:"records"`
	Offered int    `json:"offered"`
	Shed    int    `json:"shed"`
	// StalenessSeconds is the age of the currently served view;
	// LagRecords is how many state changes it trails the engine by.
	StalenessSeconds float64 `json:"stalenessSeconds"`
	LagRecords       uint64  `json:"lagRecords"`
	// Overload is the admission layer's live accounting (absent when the
	// daemon runs without one, e.g. under tests).
	Overload *overload.Status `json:"overload,omitempty"`
	// Sites is the per-site supervision ladder (present when the daemon
	// wired health hooks). Any site not running makes Status "degraded".
	Sites []siteHealthEntry `json:"sites,omitempty"`
}

// siteHealthEntry is one rung of the /healthz per-site ladder.
type siteHealthEntry struct {
	ID string `json:"id"`
	SiteHealth
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v, lag := liveView(w, s.fleet)
	staleness := time.Since(v.BuiltAt)
	if lag == 0 {
		staleness = 0 // current view: not stale, whatever its age
	}
	resp := healthResponse{
		Status:           "ok",
		Records:          v.Summary.Records,
		Offered:          v.Summary.Offered,
		Shed:             v.Summary.Shed,
		StalenessSeconds: staleness.Seconds(),
		LagRecords:       lag,
	}
	if staleness > maxStaleness || v.Summary.Degraded {
		resp.Status = "degraded"
	}
	for _, st := range s.sites {
		if st.health == nil {
			continue
		}
		h := st.currentHealth()
		resp.Sites = append(resp.Sites, siteHealthEntry{ID: st.id, SiteHealth: h})
		if h.State != SiteRunning {
			resp.Status = "degraded"
		}
	}
	if s.ovl != nil {
		st := s.ovl()
		resp.Overload = &st
		if st.Breaker.State != "" && st.Breaker.State != overload.BreakerClosed.String() {
			resp.Status = "degraded"
		}
		if st.Queue.Saturated {
			resp.Status = "shedding"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// faultView is one fault in operator-facing form: the node as its
// hostname (feedable back into /v1/nodes/{id}), the slot by name, the
// mode by its Fig-4a string, and the address in hex. The raw per-error
// index list is internal bookkeeping and is not exposed.
type faultView struct {
	Node    string    `json:"node"`
	Slot    string    `json:"slot"`
	Rank    int       `json:"rank"`
	Bank    int       `json:"bank"`
	Mode    string    `json:"mode"`
	Col     int       `json:"col"`
	Addr    string    `json:"addr"`
	Bit     int       `json:"bit"`
	NErrors int       `json:"nErrors"`
	First   time.Time `json:"first"`
	Last    time.Time `json:"last"`
}

func viewFault(f core.Fault) faultView {
	return faultView{
		Node:    f.Node.String(),
		Slot:    f.Slot.Name(),
		Rank:    f.Rank,
		Bank:    f.Bank,
		Mode:    f.Mode.String(),
		Col:     f.Col,
		Addr:    fmt.Sprintf("%#x", uint64(f.Addr)),
		Bit:     f.Bit,
		NErrors: f.NErrors,
		First:   f.First,
		Last:    f.Last,
	}
}

// faultsResponse is the /v1/faults payload.
type faultsResponse struct {
	Count  int         `json:"count"`
	Faults []faultView `json:"faults"`
}

func renderFaults(v *stream.View, _ int, r *http.Request) (int, any) {
	faults := v.Faults
	if modeStr := r.URL.Query().Get("mode"); modeStr != "" {
		mode := core.FaultMode(-1)
		for m := core.FaultMode(0); m < core.NumFaultModes; m++ {
			if m.String() == modeStr {
				mode = m
			}
		}
		if mode < 0 {
			return http.StatusBadRequest, errorBody{"unknown mode " + modeStr}
		}
		kept := faults[:0:0]
		for _, f := range faults {
			if f.Mode == mode {
				kept = append(kept, f)
			}
		}
		faults = kept
	}
	views := make([]faultView, len(faults))
	for i, f := range faults {
		views[i] = viewFault(f)
	}
	return http.StatusOK, faultsResponse{Count: len(faults), Faults: views}
}

func renderBreakdown(v *stream.View, _ int, _ *http.Request) (int, any) {
	return http.StatusOK, v.Summary
}

// siteInfo is one row of the /v1/sites inventory.
type siteInfo struct {
	ID          string    `json:"id"`
	Records     int       `json:"records"`
	Offered     int       `json:"offered"`
	Shed        int       `json:"shed"`
	Faults      int       `json:"faults"`
	FaultyNodes int       `json:"faultyNodes"`
	Last        time.Time `json:"last"`
	Degraded    bool      `json:"degraded"`
	Seq         uint64    `json:"seq"`
	// State is the site's supervision state (omitted when the daemon runs
	// without supervision hooks).
	State string `json:"state,omitempty"`
}

type sitesResponse struct {
	Count int        `json:"count"`
	Sites []siteInfo `json:"sites"`
}

func (s *Server) renderSites(_ *stream.View, _ int, _ *http.Request) (int, any) {
	resp := sitesResponse{Count: len(s.sites), Sites: make([]siteInfo, 0, len(s.sites))}
	for _, st := range s.sites {
		v := st.src.LiveView()
		info := siteInfo{
			ID:          st.id,
			Records:     v.Summary.Records,
			Offered:     v.Summary.Offered,
			Shed:        v.Summary.Shed,
			Faults:      v.Summary.Faults,
			FaultyNodes: v.Summary.FaultyNodes,
			Last:        v.Summary.Last,
			Degraded:    v.Summary.Degraded,
			Seq:         v.Seq,
		}
		if st.health != nil {
			info.State = st.currentHealth().State
		}
		resp.Sites = append(resp.Sites, info)
	}
	return http.StatusOK, resp
}

// fitResponse pairs the rolling windowed estimate with the rate over the
// whole observed span.
type fitResponse struct {
	Windowed stream.WindowedFIT `json:"windowed"`
	// Overall is the FIT/DIMM analysis over the observed event-time span
	// (degraded when nothing has been observed yet).
	Overall     core.FaultRates `json:"overall"`
	SpanSeconds float64         `json:"spanSeconds"`
}

func renderFIT(v *stream.View, dimms int, _ *http.Request) (int, any) {
	sum := v.Summary
	span := time.Duration(0)
	if !sum.First.IsZero() {
		span = sum.Last.Sub(sum.First)
	}
	return http.StatusOK, fitResponse{
		Windowed:    v.FIT,
		Overall:     v.FaultRates(dimms, span),
		SpanSeconds: span.Seconds(),
	}
}

func renderNode(v *stream.View, _ int, r *http.Request) (int, any) {
	id, err := topology.ParseNodeID(r.PathValue("id"))
	if err != nil {
		return http.StatusBadRequest, errorBody{err.Error()}
	}
	st, ok := v.NodeStatus(id)
	if !ok {
		return http.StatusNotFound, errorBody{"no records from node " + id.String()}
	}
	views := make([]faultView, len(st.Faults))
	for i, f := range st.Faults {
		views[i] = viewFault(f)
	}
	return http.StatusOK, nodeResponse{
		Node:        st.Node.String(),
		CEs:         st.CEs,
		First:       st.First,
		Last:        st.Last,
		WindowCount: st.WindowCount,
		WindowRate:  st.WindowRate,
		Faults:      views,
	}
}

// nodeResponse is stream.NodeStatus in operator-facing form: the node as
// its hostname, faults as faultView.
type nodeResponse struct {
	Node        string      `json:"node"`
	CEs         int         `json:"ces"`
	First       time.Time   `json:"first"`
	Last        time.Time   `json:"last"`
	WindowCount int         `json:"windowCount"`
	WindowRate  float64     `json:"windowRate"`
	Faults      []faultView `json:"faults"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}
