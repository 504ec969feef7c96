// Package envmodel implements Astra's environmental telemetry as a
// procedural model: per-node CPU and DIMM-group temperatures and DC power,
// sampled once per minute (§2.2), evaluable at any (node, sensor, minute)
// coordinate in O(1) without storing the series.
//
// The real system stored ~8 GiB of sensor data in a back-end database; at
// 2592 nodes x 7 sensors x 1 sample/min over four months that is ~2.7e9
// samples, which the reproduction cannot hold in memory. Instead, every
// sample is a pure function of (seed, node, sensor, minute):
//
//	value = base + airflow-depth offset + gain·utilization(node, t)
//	      + node offset + rack offset + per-minute hash noise
//
// where utilization is a sum of sinusoids at incommensurate periods with
// node-specific phases plus bounded hash noise. Because the deterministic
// part is integrable in closed form, window means over arbitrary intervals
// (needed per-error for the Fig 9 analysis) are also O(1).
//
// The Astra-truth model deliberately has no coupling from temperature or
// utilization to fault/error rates; that coupling exists only in the
// comparison models of internal/baseline.
package envmodel

import (
	"math"

	"repro/internal/simrand"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Params calibrates the telemetry model. The zero value is not useful;
// start from DefaultParams.
type Params struct {
	// CPUBase and CPUGain set CPU temperature as base + gain·utilization.
	CPUBase, CPUGain float64
	// CPUDepthSpan scales the airflow-depth offset for CPU sensors.
	CPUDepthSpan float64
	// DIMMBase, DIMMGain, DIMMDepthSpan: same for DIMM-group sensors.
	DIMMBase, DIMMGain, DIMMDepthSpan float64
	// CPUNodeSigma is the s.d. of the static per-(node, sensor) offset for
	// CPU sensors; DIMMNodeSigma is the same for DIMM-group sensors.
	CPUNodeSigma, DIMMNodeSigma float64
	// RackTempSigma is the s.d. of the static per-rack offset.
	RackTempSigma float64
	// TempNoiseSigma is the s.d. of per-minute measurement noise (°C).
	TempNoiseSigma float64
	// PowerIdle and PowerSpan set node power as idle + span·utilization.
	PowerIdle, PowerSpan float64
	// PowerNoiseSigma is the s.d. of per-minute power noise (W).
	PowerNoiseSigma float64
	// UtilBiasSpan is the half-range of the static per-node utilization
	// bias (some nodes run consistently hotter jobs).
	UtilBiasSpan float64
	// InvalidProb is the probability that a sample is replaced by a
	// garbage reading (sensor not functioning / misread, §2.2); must be
	// well under 1%.
	InvalidProb float64
	// RegionGradientC adds this many °C per rack-region step from bottom
	// to top. Astra's front-to-back cooling keeps it at 0 (§3.4: region
	// means differ by well under 1 °C); the Cielo/Jaguar-style baseline
	// scenarios with bottom-to-top airflow set it positive.
	RegionGradientC float64
}

// DefaultParams returns the calibration used for the headline
// reproduction: CPU monthly means ≈ 55-75 °C with CPU1 ≈ 5 °C hotter than
// CPU2, DIMM means ≈ 35-52 °C, decile spreads ≈ 7 °C (CPU) and ≈ 4 °C
// (DIMM), rack-to-rack mean spread < 4.2 °C, region spread ≪ 1 °C, node
// power ≈ 240-400 W (Figs 2, 13, 14).
func DefaultParams() Params {
	return Params{
		CPUBase:         52,
		CPUGain:         16,
		CPUDepthSpan:    12,
		DIMMBase:        36,
		DIMMGain:        8,
		DIMMDepthSpan:   8,
		CPUNodeSigma:    2.2,
		DIMMNodeSigma:   1.1,
		RackTempSigma:   0.5,
		TempNoiseSigma:  0.8,
		PowerIdle:       235,
		PowerSpan:       180,
		PowerNoiseSigma: 8,
		UtilBiasSpan:    0.15,
		InvalidProb:     0.003,
	}
}

// Utilization sinusoid components: amplitudes sum to 0.22, the bounded
// hash noise adds at most ±0.104 (HashNorm is bounded in ±2√3 ≈ ±3.464)
// and the static bias at most ±UtilBiasSpan, so around utilBase = 0.52
// utilization stays strictly inside (0, 1) without clamping — keeping the
// closed-form window means exact.
var utilComponents = [...]struct {
	amp    float64
	period float64 // minutes
}{
	{0.10, simtime.MinutesPerDay},       // diurnal cycle
	{0.07, 31 * simtime.MinutesPerHour}, // multi-day job waves
	{0.05, 437},                         // job churn (~7.3 h)
}

const (
	utilBase     = 0.52
	utilNoiseAmp = 0.03
)

// Model evaluates the procedural telemetry. Construct with New; safe for
// concurrent use (it is immutable).
type Model struct {
	seed   uint64
	params Params
	// nodes holds every node's static terms, indexed by NodeID, so an
	// evaluation reads them instead of hashing them; the Fig 9 analysis
	// makes four window-mean evaluations per CE record.
	nodes []nodeTerms
}

// nodeTerms are one node's utilization-independent model terms.
type nodeTerms struct {
	// utilBias is the static utilization offset in
	// [-UtilBiasSpan, +UtilBiasSpan].
	utilBias float64
	// phase is the phase of each utilization component, in [0, 2π).
	phase [len(utilComponents)]float64
	// temp is each temperature sensor's static part and utilization
	// gain, indexed by Sensor.
	temp [topology.SensorDIMMJLNP + 1]struct{ static, gain float64 }
}

// New builds a model from a seed and parameters. It computes every node's
// static terms up front (~330 KB for the whole machine), with the same
// expressions, and so the same bits, as evaluating them on demand.
func New(seed uint64, params Params) *Model {
	m := &Model{seed: simrand.Hash64(seed, simrand.HashString("envmodel")), params: params}
	m.nodes = make([]nodeTerms, topology.Nodes)
	for i := range m.nodes {
		node, nt := topology.NodeID(i), &m.nodes[i]
		nt.utilBias = (2*simrand.HashUnit(m.seed, 0x01, uint64(node)) - 1) * params.UtilBiasSpan
		for c := range nt.phase {
			nt.phase[c] = 2 * math.Pi * simrand.HashUnit(m.seed, 0x02, uint64(node), uint64(c))
		}
		for _, s := range topology.TemperatureSensors() {
			nt.temp[s].static, nt.temp[s].gain = m.tempTerms(node, s)
		}
	}
	return m
}

// Utilization returns the node's instantaneous utilization in (0, 1) at
// the given minute.
func (m *Model) Utilization(node topology.NodeID, t simtime.Minute) float64 {
	nt := &m.nodes[node]
	u := utilBase + nt.utilBias
	for c, comp := range utilComponents {
		w := 2 * math.Pi / comp.period
		u += comp.amp * math.Sin(w*float64(t)+nt.phase[c])
	}
	u += utilNoiseAmp * simrand.HashNorm(m.seed, 0x03, uint64(node), uint64(t))
	return u
}

// utilizationWindowMean is the closed-form mean of Utilization over
// [start, start+n): sinusoids integrate exactly; the per-minute noise mean
// over n samples is represented by an equivalent deterministic pseudo-draw
// with the correct variance (σ/√n), keyed by the window, so repeated
// queries agree.
func (m *Model) utilizationWindowMean(node topology.NodeID, start simtime.Minute, n int64) float64 {
	if n <= 0 {
		panic("envmodel: window length must be positive")
	}
	nt := &m.nodes[node]
	u := utilBase + nt.utilBias
	a := float64(start)
	b := float64(start + simtime.Minute(n))
	for c, comp := range utilComponents {
		w := 2 * math.Pi / comp.period
		phi := nt.phase[c]
		u += comp.amp * (math.Cos(w*a+phi) - math.Cos(w*b+phi)) / (w * (b - a))
	}
	u += utilNoiseAmp / math.Sqrt(float64(n)) *
		simrand.HashNorm(m.seed, 0x04, uint64(node), uint64(start), uint64(n))
	return u
}

// tempStatic returns the utilization-independent part of a temperature
// sensor's reading and its utilization gain, from the node's terms.
func (m *Model) tempStatic(node topology.NodeID, s topology.Sensor) (static, gain float64) {
	if !s.IsTemperature() {
		panic("envmodel: tempStatic on non-temperature sensor")
	}
	t := &m.nodes[node].temp[s]
	return t.static, t.gain
}

// tempTerms computes what tempStatic returns: base + airflow-depth offset
// + node offset + rack offset (+ region gradient), and the sensor kind's
// gain.
func (m *Model) tempTerms(node topology.NodeID, s topology.Sensor) (static, gain float64) {
	p := m.params
	var base, depthSpan, nodeSigma float64
	if s.IsDIMM() {
		base, gain, depthSpan, nodeSigma = p.DIMMBase, p.DIMMGain, p.DIMMDepthSpan, p.DIMMNodeSigma
	} else {
		base, gain, depthSpan, nodeSigma = p.CPUBase, p.CPUGain, p.CPUDepthSpan, p.CPUNodeSigma
	}
	static = base + depthSpan*topology.AirflowDepth(s)
	static += nodeSigma * simrand.HashNorm(m.seed, 0x05, uint64(node), uint64(s))
	static += p.RackTempSigma * simrand.HashNorm(m.seed, 0x06, uint64(node.Rack()))
	static += p.RegionGradientC * float64(node.Region())
	return static, gain
}

// TrueValue returns the physically-correct sensor value at a minute
// (temperature in °C or power in W), before any sensor malfunction.
func (m *Model) TrueValue(node topology.NodeID, s topology.Sensor, t simtime.Minute) float64 {
	u := m.Utilization(node, t)
	if s == topology.SensorDCPower {
		return m.params.PowerIdle + m.params.PowerSpan*u +
			m.params.PowerNoiseSigma*simrand.HashNorm(m.seed, 0x07, uint64(node), uint64(t))
	}
	static, gain := m.tempStatic(node, s)
	return static + gain*u +
		m.params.TempNoiseSigma*simrand.HashNorm(m.seed, 0x08, uint64(node), uint64(s), uint64(t))
}

// Sample returns the sensor reading as the BMC would record it: usually
// TrueValue, but with probability InvalidProb a garbage value (a stuck
// reading near 0, a saturated value, or a wildly out-of-range spike — the
// "clearly identified as invalid" values of §2.2). valid reports ground
// truth; the ETL layer must re-derive validity from the value alone.
func (m *Model) Sample(node topology.NodeID, s topology.Sensor, t simtime.Minute) (value float64, valid bool) {
	v := m.TrueValue(node, s, t)
	u := simrand.HashUnit(m.seed, 0x09, uint64(node), uint64(s), uint64(t))
	if u >= m.params.InvalidProb {
		return v, true
	}
	// Garbage mode chosen by a second hash.
	switch simrand.Hash64(m.seed, 0x0a, uint64(node), uint64(s), uint64(t)) % 3 {
	case 0:
		return 0, false // sensor not read
	case 1:
		if s == topology.SensorDCPower {
			return 65535, false // saturated ADC
		}
		return 200 + 55*simrand.HashUnit(m.seed, 0x0b, uint64(node), uint64(t)), false
	default:
		return -1, false // wire fault
	}
}

// PlausibleRange returns the validity window that tells a sensor kind's
// garbage readings from real ones by value alone: Sample's invalid
// values all fall outside it (TestInvalidSampleInjection), so a reader
// of the exported sensor CSV can discard them.
func PlausibleRange(s topology.Sensor) (lo, hi float64) {
	if s == topology.SensorDCPower {
		return 50, 1000
	}
	return 5, 120
}

// WindowMean returns the mean TrueValue over [start, start+n) minutes in
// O(1). The sinusoidal part is integrated in closed form; static offsets
// pass through; measurement noise contributes a deterministic pseudo-draw
// with the correct σ/√n magnitude. Window means therefore agree with
// brute-force averaging of TrueValue up to that noise term (see tests).
func (m *Model) WindowMean(node topology.NodeID, s topology.Sensor, start simtime.Minute, n int64) float64 {
	uMean := m.utilizationWindowMean(node, start, n)
	if s == topology.SensorDCPower {
		return m.params.PowerIdle + m.params.PowerSpan*uMean +
			m.params.PowerNoiseSigma/math.Sqrt(float64(n))*
				simrand.HashNorm(m.seed, 0x0c, uint64(node), uint64(start), uint64(n))
	}
	static, gain := m.tempStatic(node, s)
	return static + gain*uMean +
		m.params.TempNoiseSigma/math.Sqrt(float64(n))*
			simrand.HashNorm(m.seed, 0x0d, uint64(node), uint64(s), uint64(start), uint64(n))
}

// MeanBefore returns the mean TrueValue over the n minutes immediately
// preceding t — the quantity the Fig 9 analysis computes per error.
func (m *Model) MeanBefore(node topology.NodeID, s topology.Sensor, t simtime.Minute, n int64) float64 {
	return m.WindowMean(node, s, t-simtime.Minute(n), n)
}

// MonthlyMean returns the mean TrueValue over the calendar month
// identified by monthKey (see simtime.MonthKey), used by the decile and
// utilization analyses (Figs 13, 14).
func (m *Model) MonthlyMean(node topology.NodeID, s topology.Sensor, monthKey int) float64 {
	start := simtime.MonthKeyTime(monthKey)
	end := simtime.MonthKeyTime(monthKey + 1)
	sm := simtime.MinuteOf(start)
	return m.WindowMean(node, s, sm, int64(simtime.MinuteOf(end)-sm))
}
