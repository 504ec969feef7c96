package envmodel

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/topology"
)

func testModel() *Model { return New(42, DefaultParams()) }

func TestUtilizationBounded(t *testing.T) {
	m := testModel()
	start := simtime.MinuteOf(simtime.EnvStart)
	for node := topology.NodeID(0); node < 20; node++ {
		for i := int64(0); i < 5000; i += 7 {
			u := m.Utilization(node, start+simtime.Minute(i))
			if u <= 0 || u >= 1 {
				t.Fatalf("utilization %v out of (0,1) at node %d minute %d", u, node, i)
			}
		}
	}
}

func TestUtilizationDeterministic(t *testing.T) {
	a := New(7, DefaultParams())
	b := New(7, DefaultParams())
	if a.Utilization(5, 1000) != b.Utilization(5, 1000) {
		t.Fatal("same-seed models disagree")
	}
	c := New(8, DefaultParams())
	if a.Utilization(5, 1000) == c.Utilization(5, 1000) {
		t.Fatal("different seeds give identical values")
	}
}

func TestWindowMeanMatchesBruteForce(t *testing.T) {
	m := testModel()
	start := simtime.MinuteOf(simtime.EnvStart)
	for _, n := range []int64{60, 1440} {
		for _, s := range []topology.Sensor{topology.SensorCPU1, topology.SensorDIMMJLNP, topology.SensorDCPower} {
			sum := 0.0
			for i := int64(0); i < n; i++ {
				sum += m.TrueValue(3, s, start+simtime.Minute(i))
			}
			brute := sum / float64(n)
			fast := m.WindowMean(3, s, start, n)
			// Agreement limited by (a) the continuous-integral
			// approximation of the discrete sinusoid sum and (b) the
			// pseudo-draw replacing the actual noise mean; both are
			// O(sigma/sqrt(n)) + O(1/n) effects.
			p := m.Params()
			tol := 4*p.TempNoiseSigma/math.Sqrt(float64(n)) + 0.3
			if s == topology.SensorDCPower {
				tol = 4*p.PowerNoiseSigma/math.Sqrt(float64(n)) + 3
			}
			if d := math.Abs(brute - fast); d > tol {
				t.Errorf("sensor %v n=%d: brute %v vs fast %v (tol %v)", s, n, brute, fast, tol)
			}
		}
	}
}

func TestCPU1HotterThanCPU2(t *testing.T) {
	m := testModel()
	month := simtime.MonthKey(simtime.EnvStart)
	var d1, d2 float64
	for node := topology.NodeID(0); node < 200; node++ {
		d1 += m.MonthlyMean(node, topology.SensorCPU1, month)
		d2 += m.MonthlyMean(node, topology.SensorCPU2, month)
	}
	diff := (d1 - d2) / 200
	if diff < 2 || diff > 10 {
		t.Errorf("CPU1-CPU2 mean temp difference = %v, want ~5", diff)
	}
}

func TestDIMMGroupOrdering(t *testing.T) {
	// Socket-1 DIMM groups (upstream) must run cooler than socket-0 groups
	// on average.
	m := testModel()
	month := simtime.MonthKey(simtime.EnvStart)
	mean := func(s topology.Sensor) float64 {
		sum := 0.0
		for node := topology.NodeID(0); node < 200; node++ {
			sum += m.MonthlyMean(node, s, month)
		}
		return sum / 200
	}
	up := (mean(topology.SensorDIMMIKMO) + mean(topology.SensorDIMMJLNP)) / 2
	down := (mean(topology.SensorDIMMACEG) + mean(topology.SensorDIMMBDFH)) / 2
	if down-up < 1 || down-up > 8 {
		t.Errorf("downstream-upstream DIMM temp difference = %v", down-up)
	}
}

func TestTemperatureCalibration(t *testing.T) {
	// Monthly CPU means should land in the paper's 55-75 °C band and DIMM
	// means in the 35-52 °C band for the bulk of nodes.
	m := testModel()
	month := simtime.MonthKey(simtime.EnvStart)
	var cpu, dimm []float64
	for node := topology.NodeID(0); node < topology.Nodes; node += 5 {
		cpu = append(cpu, m.MonthlyMean(node, topology.SensorCPU1, month),
			m.MonthlyMean(node, topology.SensorCPU2, month))
		dimm = append(dimm, m.MonthlyMean(node, topology.SensorDIMMACEG, month),
			m.MonthlyMean(node, topology.SensorDIMMIKMO, month))
	}
	sc := stats.Summarize(cpu)
	sd := stats.Summarize(dimm)
	if sc.Mean < 55 || sc.Mean > 75 {
		t.Errorf("CPU mean = %v, want in [55, 75]", sc.Mean)
	}
	if sd.Mean < 35 || sd.Mean > 52 {
		t.Errorf("DIMM mean = %v, want in [35, 52]", sd.Mean)
	}
	// Decile spreads: ~7 °C for CPUs, ~4 °C for DIMMs (§3.3). Allow slack.
	dummy := make([]float64, len(cpu))
	binsC, err := stats.Deciles(cpu, dummy)
	if err != nil {
		t.Fatal(err)
	}
	if spread := stats.DecileSpread(binsC); spread < 3 || spread > 12 {
		t.Errorf("CPU decile spread = %v, want ~7", spread)
	}
	dummy = make([]float64, len(dimm))
	binsD, err := stats.Deciles(dimm, dummy)
	if err != nil {
		t.Fatal(err)
	}
	if spread := stats.DecileSpread(binsD); spread < 1.5 || spread > 8 {
		t.Errorf("DIMM decile spread = %v, want ~4", spread)
	}
}

func TestRegionTemperatureUniform(t *testing.T) {
	// Mean temperature per rack region must agree within < 1 °C (§3.4).
	m := testModel()
	month := simtime.MonthKey(simtime.EnvStart)
	sums := make([]float64, topology.NumRegions)
	counts := make([]int, topology.NumRegions)
	for node := topology.NodeID(0); node < topology.Nodes; node += 3 {
		r := node.Region()
		sums[r] += m.MonthlyMean(node, topology.SensorCPU1, month)
		counts[r]++
	}
	means := make([]float64, topology.NumRegions)
	for i := range sums {
		means[i] = sums[i] / float64(counts[i])
	}
	lo, hi := means[0], means[0]
	for _, v := range means {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo >= 1 {
		t.Errorf("region mean spread = %v °C, want < 1", hi-lo)
	}
}

func TestRackTemperatureSpread(t *testing.T) {
	// Rack-to-rack mean spread must stay under ~4.2 °C (§3.4) but be
	// nonzero (racks do differ).
	m := testModel()
	month := simtime.MonthKey(simtime.EnvStart)
	rackMeans := make([]float64, topology.Racks)
	for rack := 0; rack < topology.Racks; rack++ {
		sum := 0.0
		n := 0
		for c := 0; c < topology.ChassisPerRack; c += 2 {
			node := topology.NewNodeID(rack, c, 0)
			sum += m.MonthlyMean(node, topology.SensorDIMMACEG, month)
			n++
		}
		rackMeans[rack] = sum / float64(n)
	}
	s := stats.Summarize(rackMeans)
	if spread := s.Max - s.Min; spread >= 4.2 || spread < 0.5 {
		t.Errorf("rack mean spread = %v, want in [0.5, 4.2)", spread)
	}
}

func TestPowerCalibration(t *testing.T) {
	m := testModel()
	start := simtime.MinuteOf(simtime.EnvStart)
	var vals []float64
	for node := topology.NodeID(0); node < 100; node++ {
		for i := int64(0); i < 2000; i += 37 {
			vals = append(vals, m.TrueValue(node, topology.SensorDCPower, start+simtime.Minute(i)))
		}
	}
	s := stats.Summarize(vals)
	if s.Mean < 260 || s.Mean > 380 {
		t.Errorf("power mean = %v, want ~325", s.Mean)
	}
	if s.Min < 100 || s.Max > 550 {
		t.Errorf("power range [%v, %v] implausible", s.Min, s.Max)
	}
}

func TestPowerTracksUtilization(t *testing.T) {
	// Power and CPU temperature share the utilization driver, so monthly
	// means must correlate strongly across nodes (Fig 14's hot-samples-
	// shifted-right effect).
	m := testModel()
	month := simtime.MonthKey(simtime.EnvStart)
	var pw, tmp []float64
	for node := topology.NodeID(0); node < 400; node++ {
		pw = append(pw, m.MonthlyMean(node, topology.SensorDCPower, month))
		tmp = append(tmp, m.MonthlyMean(node, topology.SensorCPU1, month))
	}
	if r := stats.Pearson(pw, tmp); r < 0.4 {
		t.Errorf("power-temperature correlation = %v, want strong positive", r)
	}
}

func TestInvalidSampleInjection(t *testing.T) {
	m := testModel()
	start := simtime.MinuteOf(simtime.EnvStart)
	total, invalid := 0, 0
	filteredMatchesFlag := true
	for node := topology.NodeID(0); node < 30; node++ {
		for i := int64(0); i < 3000; i++ {
			v, valid := m.Sample(node, topology.SensorCPU1, start+simtime.Minute(i))
			total++
			if !valid {
				invalid++
			}
			lo, hi := PlausibleRange(topology.SensorCPU1)
			inRange := v >= lo && v <= hi
			if inRange != valid {
				filteredMatchesFlag = false
			}
		}
	}
	frac := float64(invalid) / float64(total)
	if frac <= 0 || frac >= 0.01 {
		t.Errorf("invalid fraction = %v, want (0, 1%%)", frac)
	}
	if !filteredMatchesFlag {
		t.Error("plausible-range filter disagrees with ground-truth validity")
	}
}

func TestMeanBeforeWindows(t *testing.T) {
	m := testModel()
	at := simtime.MinuteOf(simtime.EnvStart) + simtime.MinutesPerMonth + 500
	for _, n := range []int64{simtime.MinutesPerHour, simtime.MinutesPerDay, simtime.MinutesPerWeek, simtime.MinutesPerMonth} {
		v := m.MeanBefore(9, topology.SensorDIMMJLNP, at, n)
		if v < 25 || v > 60 {
			t.Errorf("MeanBefore(n=%d) = %v, implausible DIMM temp", n, v)
		}
	}
}

func TestWindowMeanPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testModel().WindowMean(0, topology.SensorCPU1, 0, 0)
}

func TestTrueValuePanicsOnUnknownSensor(t *testing.T) {
	defer func() {
		if r := recover(); r != "envmodel: tempStatic on non-temperature sensor" {
			t.Fatalf("recovered %v, want the non-temperature sensor panic", r)
		}
	}()
	testModel().TrueValue(0, topology.NumSensors, 0)
}

func BenchmarkTrueValue(b *testing.B) {
	m := testModel()
	start := simtime.MinuteOf(simtime.EnvStart)
	for i := 0; i < b.N; i++ {
		m.TrueValue(topology.NodeID(i%topology.Nodes), topology.SensorDIMMACEG, start+simtime.Minute(i%100000))
	}
}

func BenchmarkWindowMeanMonth(b *testing.B) {
	m := testModel()
	start := simtime.MinuteOf(simtime.EnvStart)
	for i := 0; i < b.N; i++ {
		m.WindowMean(topology.NodeID(i%topology.Nodes), topology.SensorDIMMACEG, start, simtime.MinutesPerMonth)
	}
}

// TestModelDigest pins every exported evaluation bit for bit: a digest of
// math.Float64bits over Utilization, TrueValue, Sample, WindowMean,
// MonthlyMean and MeanBefore at each Fig 9 window, for nodes at both ends
// and the middle of the machine, every sensor, and a spread of minutes
// across the environmental window. The tolerance tests above would pass
// a model that drifted by an ulp; this one fails on any change to a
// single output bit, under the default calibration and one with a
// region gradient.
func TestModelDigest(t *testing.T) {
	grad := DefaultParams()
	grad.RegionGradientC = 0.7
	models := []*Model{New(42, DefaultParams()), New(7, grad)}
	windows := []int64{simtime.MinutesPerHour, simtime.MinutesPerDay, simtime.MinutesPerWeek, simtime.MinutesPerMonth}
	start := simtime.MinuteOf(simtime.EnvStart)
	firstMonth, lastMonth := simtime.MonthKey(simtime.EnvStart), simtime.MonthKey(simtime.EnvEnd)

	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	invalid := 0
	for _, m := range models {
		for _, node := range []topology.NodeID{0, 1, 1295, topology.Nodes - 1} {
			for i := 0; i < 2000; i++ {
				put(m.Utilization(node, start+simtime.Minute(97*i)))
			}
			for s := topology.Sensor(0); s < topology.NumSensors; s++ {
				for i := 0; i < 2000; i++ {
					at := start + simtime.Minute(97*i)
					put(m.TrueValue(node, s, at))
					v, valid := m.Sample(node, s, at)
					put(v)
					if !valid {
						invalid++
						put(-1)
					}
					if i%10 == 0 {
						for _, n := range windows {
							put(m.WindowMean(node, s, at, n))
							put(m.MeanBefore(node, s, at, n))
						}
					}
				}
				for month := firstMonth; month <= lastMonth; month++ {
					put(m.MonthlyMean(node, s, month))
				}
			}
		}
	}
	if invalid == 0 {
		t.Error("no invalid sample drawn: the digest does not cover Sample's garbage modes")
	}
	const want uint64 = 0xe05c7337158dee14
	if got := h.Sum64(); got != want {
		t.Errorf("model digest = %#x, want %#x", got, want)
	}
}
