package serve

import (
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("demo_requests_total", `path="/a"`, "Requests.")
	c2 := r.NewCounter("demo_requests_total", `path="/b"`, "Requests.")
	r.NewGaugeFunc("demo_live", "", "Live value.", func() float64 { return 4.5 })
	r.NewCounterFunc("demo_ext_total", "", "External total.", func() float64 { return 9 })
	h := r.NewHistogram("demo_latency_seconds", "", "Latency.", []float64{0.1, 1})

	c.Inc()
	c.Inc()
	c.Inc()
	c2.Inc()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	got := render(t, r)
	for _, want := range []string{
		"# HELP demo_requests_total Requests.\n# TYPE demo_requests_total counter\n",
		"demo_requests_total{path=\"/a\"} 3\n",
		"demo_requests_total{path=\"/b\"} 1\n",
		"demo_live 4.5\n",
		"demo_ext_total 9\n",
		"demo_latency_seconds_bucket{le=\"0.1\"} 1\n",
		"demo_latency_seconds_bucket{le=\"1\"} 2\n",
		"demo_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"demo_latency_seconds_sum 5.55\n",
		"demo_latency_seconds_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	// A family's HELP/TYPE header appears once even with several series.
	if n := strings.Count(got, "# TYPE demo_requests_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
	// An unchanged registry scrapes byte-identically.
	if again := render(t, r); again != got {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("demo_total", "", "A counter.")
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.NewGaugeFunc("demo_total", "", "Now a gauge.", func() float64 { return 0 })
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("demo_seconds", "", "x", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	got := render(t, r)
	if !strings.Contains(got, "demo_seconds_bucket{le=\"1\"} 1\n") {
		t.Fatalf("boundary observation not in inclusive bucket:\n%s", got)
	}
}
