package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// Source is the engine surface the server reads. A *stream.Engine
// satisfies it; a daemon wraps one to swap engines under the server
// (astrad's supervised restarts), and tests substitute doubles.
type Source interface {
	// LiveView returns a current or recent immutable view (never blocks
	// behind ingest; see stream.Engine.LiveView).
	LiveView() *stream.View
	// Seq is the state-change counter views are compared against.
	Seq() uint64
	// Summary is the live top-level aggregate.
	Summary() stream.Summary
	// Shed is the total records lost to load shedding.
	Shed() uint64
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
	// MaxConcurrent caps in-flight requests per endpoint; beyond it
	// requests are refused with 503 + Retry-After. 0 means
	// DefaultMaxConcurrent; negative disables the cap.
	MaxConcurrent int
	// RequestTimeout bounds each request end to end (handler context
	// plus connection write deadline). 0 means DefaultRequestTimeout;
	// negative disables it.
	RequestTimeout time.Duration
	// MaxStaleness is the served-view age beyond which /healthz reports
	// degraded. 0 means DefaultMaxStaleness.
	MaxStaleness time.Duration
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
// Every endpoint is instrumented with a per-endpoint request counter and
// latency histogram, capped to MaxConcurrent in-flight requests, and
// bounded by RequestTimeout.
//
// Reads are snapshot-based: handlers serve an immutable stream.View, so
// a herd of API clients never contends with ingest on the engine mutex.
// When ingest holds the engine (a batch in flight), the previous view is
// served as-is and the response carries X-Astra-Staleness (the view's
// age) and X-Astra-Staleness-Records (how many records it trails by) —
// stale data is served honestly, never silently.
type Server struct {
	sites     []*siteState
	log       *slog.Logger
	reg       *Registry
	scanStats func() syslog.ScanStats
	ovl       func() overload.Status
	mux       *http.ServeMux

	// merged caches the cross-site rollup view per fleet epoch (one
	// merge per epoch, however many readers).
	merged  atomic.Pointer[stream.View]
	mergeMu sync.Mutex

	cache       *respCache
	cacheHits   *Counter
	cacheMisses *Counter
	cacheNotMod *Counter

	maxConcurrent  int
	requestTimeout time.Duration
	maxStaleness   time.Duration

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
		cache:     newRespCache(0),

		maxConcurrent:  cfg.MaxConcurrent,
		requestTimeout: cfg.RequestTimeout,
		maxStaleness:   cfg.MaxStaleness,

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
	if s.maxConcurrent == 0 {
		s.maxConcurrent = DefaultMaxConcurrent
	}
	if s.requestTimeout == 0 {
		s.requestTimeout = DefaultRequestTimeout
	}
	if s.maxStaleness <= 0 {
		s.maxStaleness = DefaultMaxStaleness
	}
	s.cacheHits = s.reg.NewCounter("astrad_cache_hits_total", "", "Cacheable GETs served from the epoch-keyed response cache.")
	s.cacheMisses = s.reg.NewCounter("astrad_cache_misses_total", "", "Cacheable GETs that re-rendered (new epoch, new URL, or evicted entry).")
	s.cacheNotMod = s.reg.NewCounter("astrad_cache_not_modified_total", "", "Cacheable GETs answered 304 via If-None-Match.")
	s.registerMetrics()
	s.registerRiskMetrics()
	s.route("GET /healthz", "/healthz", s.handleHealthz)
	s.route("GET /v1/faults", "/v1/faults", s.cached(false, renderFaults))
	s.route("GET /v1/breakdown", "/v1/breakdown", s.cached(false, renderBreakdown))
	s.route("GET /v1/fit", "/v1/fit", s.cached(false, renderFIT))
	s.route("GET /v1/nodes/{id}", "/v1/nodes/{id}", s.cached(false, renderNode))
	s.route("GET /v1/nodes/{id}/risk", "/v1/nodes/{id}/risk", s.cached(false, s.renderNodeRisk))
	s.route("GET /v1/atrisk", "/v1/atrisk", s.cached(false, s.renderAtRisk))
	s.route("GET /v1/sites", "/v1/sites", s.cached(false, s.renderSites))
	s.route("GET /v1/sites/{site}/faults", "/v1/sites/{site}/faults", s.cached(true, renderFaults))
	s.route("GET /v1/sites/{site}/breakdown", "/v1/sites/{site}/breakdown", s.cached(true, renderBreakdown))
	s.route("GET /v1/sites/{site}/fit", "/v1/sites/{site}/fit", s.cached(true, renderFIT))
	s.route("GET /v1/sites/{site}/nodes/{id}", "/v1/sites/{site}/nodes/{id}", s.cached(true, renderNode))
	s.route("GET /v1/sites/{site}/nodes/{id}/risk", "/v1/sites/{site}/nodes/{id}/risk", s.cached(true, s.renderNodeRisk))
	s.route("GET /v1/sites/{site}/atrisk", "/v1/sites/{site}/atrisk", s.cached(true, s.renderAtRisk))
	s.route("GET /metrics", "/metrics", s.handleMetrics)
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry so the host process can
// attach its own series (checkpoint age, ingest rate, ...).
func (s *Server) Registry() *Registry { return s.reg }

// route installs a protected, instrumented handler. Inside out: the
// handler itself, the per-endpoint concurrency cap (innermost so a
// rejection is cheap), the request deadline, instrumentation, and the
// panic backstop outermost.
func (s *Server) route(pattern, path string, h http.HandlerFunc) {
	labels := `path="` + path + `"`
	reqs := s.reg.NewCounter("astrad_http_requests_total", labels, "HTTP requests served, by endpoint.")
	lat := s.reg.NewHistogram("astrad_http_request_seconds", labels, "HTTP request latency in seconds, by endpoint.", nil)
	rejected := s.reg.NewCounter("astrad_http_rejected_total", labels, "Requests refused with 503 at the per-endpoint concurrency cap.")
	panics := s.reg.NewCounter("astrad_http_panics_total", labels, "Handler panics recovered into 500s.")
	wrapped := limited(s.maxConcurrent, rejected, h)
	wrapped = deadlined(s.requestTimeout, wrapped)
	instrumented := func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		wrapped(w, r)
		d := time.Since(start)
		reqs.Inc()
		lat.Observe(d.Seconds())
		s.log.Debug("request", "path", r.URL.Path, "dur", d)
	}
	s.mux.HandleFunc(pattern, recovered(s, panics, instrumented))
}

// fleetSeq sums the per-site state counters: the rollup epoch.
func (s *Server) fleetSeq() uint64 {
	var seq uint64
	for _, st := range s.sites {
		seq += st.src.Seq()
	}
	return seq
}

// fleetDIMMs sums the per-site device populations.
func (s *Server) fleetDIMMs() int {
	d := 0
	for _, st := range s.sites {
		d += st.src.DIMMs()
	}
	return d
}

// fleetView returns the cross-site rollup view, rebuilt at most once per
// fleet epoch (single-site daemons pass the site view through
// untouched). Per-site views are the sites' own consistent cuts; the
// rollup composes whatever cuts are current, and its Seq is their sum,
// so it can only advance.
func (s *Server) fleetView() *stream.View {
	if len(s.sites) == 1 {
		return s.sites[0].src.LiveView()
	}
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	views := make([]*stream.View, len(s.sites))
	var seq uint64
	for i, st := range s.sites {
		views[i] = st.src.LiveView()
		seq += views[i].Seq
	}
	if m := s.merged.Load(); m != nil && m.Seq == seq {
		return m
	}
	m := stream.MergeViews(s.fleetDIMMs(), views...)
	s.merged.Store(m)
	return m
}

// liveView fetches the fleet view to serve and stamps staleness headers
// when it trails the engines (ingest busy: the stale view is served
// rather than blocking the reader behind an engine mutex).
func (s *Server) liveView(w http.ResponseWriter) *stream.View {
	v := s.fleetView()
	if lag := s.fleetSeq() - v.Seq; lag > 0 {
		w.Header().Set("X-Astra-Staleness", time.Since(v.BuiltAt).String())
		w.Header().Set("X-Astra-Staleness-Records", strconv.FormatUint(lag, 10))
	}
	return v
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

// renderFunc produces one cacheable JSON response from an immutable
// view: pure in the view, so the rendered bytes are valid for exactly
// as long as the view's epoch.
type renderFunc func(v *stream.View, dimms int, r *http.Request) (int, any)

// cached wraps a renderFunc with the snapshot-keyed response layer:
// the ETag is the view epoch, If-None-Match answers 304 without
// rendering, and rendered 200 bodies are reused for every request at
// the same (URL, epoch). siteScoped routes resolve {site} from the
// path and serve that site's view; otherwise the fleet rollup view is
// served with staleness headers.
func (s *Server) cached(siteScoped bool, render renderFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var v *stream.View
		var dimms int
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
			v = site.src.LiveView()
			if lag := site.src.Seq() - v.Seq; lag > 0 {
				w.Header().Set("X-Astra-Staleness", time.Since(v.BuiltAt).String())
				w.Header().Set("X-Astra-Staleness-Records", strconv.FormatUint(lag, 10))
			}
			dimms = site.src.DIMMs()
		} else {
			v = s.liveView(w)
			dimms = s.fleetDIMMs()
		}
		etag := `"astra-` + strconv.FormatUint(v.Seq, 16) + `"`
		h := w.Header()
		h.Set("ETag", etag)
		h.Set("Cache-Control", "no-cache")
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			s.cacheNotMod.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		key := r.URL.Path
		if r.URL.RawQuery != "" {
			key += "?" + r.URL.RawQuery
		}
		if ent, ok := s.cache.get(key, v.Seq); ok {
			s.cacheHits.Inc()
			h.Set("Content-Type", "application/json")
			w.WriteHeader(ent.code)
			_, _ = w.Write(ent.body)
			return
		}
		s.cacheMisses.Inc()
		code, payload := render(v, dimms, r)
		body, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
			return
		}
		body = append(body, '\n')
		s.cache.put(key, v.Seq, code, body)
		h.Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write(body)
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

// registerMetrics wires the engine's rolling aggregates — and, when
// available, the scanner's corruption accounting — into the registry.
// Values are read at scrape time, so /metrics always reflects the live
// engine without a copy pipeline.
func (s *Server) registerMetrics() {
	// Legacy series keep their unlabelled names and, on a multi-site
	// daemon, report the all-sites aggregate; per-site series carry a
	// site label alongside.
	sum := func() stream.Summary {
		if len(s.sites) == 1 {
			return s.sites[0].src.Summary()
		}
		return s.fleetView().Summary
	}
	s.reg.NewCounterFunc("astrad_stream_records_total", "", "CE records ingested into the clustering engine.",
		func() float64 { return float64(sum().Records) })
	s.reg.NewCounterFunc("astrad_fault_escalations_total", "", "Observed per-bank fault-mode escalations.",
		func() float64 { return float64(sum().Escalations) })
	for m := core.FaultMode(0); m < core.NumFaultModes; m++ {
		m := m
		s.reg.NewGaugeFunc("astrad_open_faults", `mode="`+m.String()+`"`, "Live fault count by observable mode.",
			func() float64 { return float64(sum().FaultsByMode[m]) })
	}
	s.reg.NewGaugeFunc("astrad_faulty_nodes", "", "Nodes with at least one live fault.",
		func() float64 { return float64(sum().FaultyNodes) })
	s.reg.NewGaugeFunc("astrad_window_ce_count", "", "CE records inside the rolling event-time window.",
		func() float64 { return float64(sum().WindowCount) })
	s.reg.NewGaugeFunc("astrad_window_ce_rate", "", "CE records per second over the rolling event-time window.",
		func() float64 { return sum().WindowRate })
	s.reg.NewCounterFunc("astrad_stream_shed_total", "", "CE records shed at admission and charged to the engine's degraded accounting.",
		func() float64 {
			var n uint64
			for _, st := range s.sites {
				n += st.src.Shed()
			}
			return float64(n)
		})
	s.reg.NewGaugeFunc("astrad_view_lag_records", "", "State changes the currently served view trails the engine by.",
		func() float64 {
			v := s.fleetView()
			return float64(s.fleetSeq() - v.Seq)
		})
	if len(s.sites) > 1 {
		for _, st := range s.sites {
			st := st
			label := `site="` + st.id + `"`
			s.reg.NewCounterFunc("astrad_site_records_total", label, "CE records ingested, by site.",
				func() float64 { return float64(st.src.Summary().Records) })
			s.reg.NewCounterFunc("astrad_site_shed_total", label, "Records shed, by site.",
				func() float64 { return float64(st.src.Shed()) })
			s.reg.NewGaugeFunc("astrad_site_faults", label, "Live fault count, by site.",
				func() float64 { return float64(st.src.Summary().Faults) })
		}
	}
	for _, st := range s.sites {
		if st.health == nil {
			continue
		}
		st := st
		label := `site="` + st.id + `"`
		s.reg.NewGaugeFunc("astrad_site_state", label, "Supervision state of the site's ingest pipeline: 0 running, 1 backoff, 2 quarantined, 3 stopped.",
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
		s.reg.NewCounterFunc("astrad_site_restarts_total", label, "Supervised restarts of the site's ingest pipeline.",
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
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
	v := s.liveView(w)
	staleness := time.Since(v.BuiltAt)
	lag := s.fleetSeq() - v.Seq
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
	if staleness > s.maxStaleness || v.Summary.Degraded {
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
