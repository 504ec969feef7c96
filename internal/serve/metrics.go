// Package serve is the HTTP face of the online subsystem: JSON query
// endpoints over a stream.Engine plus a Prometheus-text /metrics
// exposition, built on the standard library only.
package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Families appear in registration order; series within
// a family in registration order too, so two scrapes of an unchanged
// registry are byte-identical.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

type family struct {
	name, help, typ string
	series          []sampler
}

// sampler renders one series' sample lines.
type sampler interface {
	sample(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) add(name, help, typ string, s sampler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("serve: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, s)
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			s.sample(w, f.name)
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v      atomic.Uint64
	labels string
}

// NewCounter registers a counter series; labels is either empty or a
// rendered label set like `path="/v1/faults"`.
func (r *Registry) NewCounter(name, labels, help string) *Counter {
	c := &Counter{labels: labels}
	r.add(name, help, "counter", c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

func (c *Counter) sample(w io.Writer, name string) {
	writeSample(w, name, c.labels, float64(c.v.Load()))
}

// funcSeries samples a callback at scrape time.
type funcSeries struct {
	labels string
	fn     func() float64
}

func (f *funcSeries) sample(w io.Writer, name string) {
	writeSample(w, name, f.labels, f.fn())
}

// NewCounterFunc registers a counter whose value is read at scrape time —
// for totals whose source of truth lives elsewhere (scanner accounting,
// engine aggregates). The callback must be monotonic for the counter type
// to be honest.
func (r *Registry) NewCounterFunc(name, labels, help string, fn func() float64) {
	r.add(name, help, "counter", &funcSeries{labels: labels, fn: fn})
}

// gaugeFunc samples a callback at scrape time.
type gaugeFunc struct {
	labels string
	fn     func() float64
}

// NewGaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) NewGaugeFunc(name, labels, help string, fn func() float64) {
	r.add(name, help, "gauge", &gaugeFunc{labels: labels, fn: fn})
}

func (g *gaugeFunc) sample(w io.Writer, name string) {
	writeSample(w, name, g.labels, g.fn())
}

// Histogram is a fixed-bucket histogram of observations.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending
	counts []uint64  // per-bucket (non-cumulative); counts[len(bounds)] is +Inf
	sum    float64
	total  uint64
	labels string
	lePre  []string // pre-rendered le labels, aligned with bounds
	leInf  string
}

// DefBuckets is a latency-oriented default bucket layout (seconds).
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// NewHistogram registers a histogram series with the given ascending
// upper bounds (nil means DefBuckets).
func (r *Registry) NewHistogram(name, labels, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("serve: histogram bounds not ascending")
	}
	h := &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		labels: labels,
	}
	for _, b := range bounds {
		h.lePre = append(h.lePre, h.leLabel(formatFloat(b)))
	}
	h.leInf = h.leLabel("+Inf")
	r.add(name, help, "histogram", h)
	return h
}

func (h *Histogram) leLabel(le string) string {
	if h.labels == "" {
		return `le="` + le + `"`
	}
	return h.labels + `,le="` + le + `"`
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

func (h *Histogram) sample(w io.Writer, name string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	var cum uint64
	for i := range h.bounds {
		cum += counts[i]
		writeSample(w, name+"_bucket", h.lePre[i], float64(cum))
	}
	writeSample(w, name+"_bucket", h.leInf, float64(total))
	writeSample(w, name+"_sum", h.labels, sum)
	writeSample(w, name+"_count", h.labels, float64(total))
}
