package core

import (
	"testing"

	"repro/internal/envmodel"
	"repro/internal/topology"
)

func TestRegionTempsUniformOnAstra(t *testing.T) {
	env := envmodel.New(51, envmodel.DefaultParams())
	rt := AnalyzeRegionTemps(env, topology.Nodes, 4)
	if len(rt.Mean) != 6 {
		t.Fatalf("sensors covered = %d", len(rt.Mean))
	}
	// §3.4: region means agree to well under 1 °C on Astra.
	if rt.MaxSpread >= 1 {
		t.Errorf("region spread = %v °C, want < 1", rt.MaxSpread)
	}
	// Absolute levels plausible: CPU1 above CPU2, DIMMs cooler than CPUs.
	cpu1 := rt.Mean[topology.SensorCPU1]
	cpu2 := rt.Mean[topology.SensorCPU2]
	dimm := rt.Mean[topology.SensorDIMMACEG]
	if cpu1[0] <= cpu2[0] || dimm[0] >= cpu2[0] {
		t.Errorf("thermal ordering wrong: cpu1=%v cpu2=%v dimm=%v", cpu1[0], cpu2[0], dimm[0])
	}
}

func TestRegionTempsDetectVerticalGradient(t *testing.T) {
	params := envmodel.DefaultParams()
	params.RegionGradientC = 4 // Cielo-style bottom-to-top airflow
	env := envmodel.New(52, params)
	rt := AnalyzeRegionTemps(env, topology.Nodes, 8)
	if rt.MaxSpread < 6 {
		t.Errorf("gradient world spread = %v °C, want ~8", rt.MaxSpread)
	}
	m := rt.Mean[topology.SensorCPU1]
	if !(m[topology.RegionBottom] < m[topology.RegionMiddle] && m[topology.RegionMiddle] < m[topology.RegionTop]) {
		t.Errorf("region means not increasing bottom-to-top: %v", m)
	}
}

func TestRackTempsSpread(t *testing.T) {
	// Full node coverage: subsampling would inflate the spread with
	// per-node sampling noise.
	env := envmodel.New(53, envmodel.DefaultParams())
	rt := AnalyzeRackTemps(env, topology.Nodes, 1)
	// §3.4: rack-to-rack spread under ~4.2 °C but nonzero.
	if rt.MaxSpread >= 4.2 || rt.MaxSpread < 0.3 {
		t.Errorf("rack spread = %v °C, want in [0.3, 4.2)", rt.MaxSpread)
	}
	for _, sensor := range topology.TemperatureSensors() {
		if len(rt.Mean[sensor]) != topology.Racks {
			t.Fatalf("sensor %v covers %d racks", sensor, len(rt.Mean[sensor]))
		}
	}
}

func TestRackTempsPartialCoverage(t *testing.T) {
	env := envmodel.New(54, envmodel.DefaultParams())
	// Only the first rack's nodes: other racks must not poison the spread.
	rt := AnalyzeRackTemps(env, topology.NodesPerRack, 1)
	if rt.MaxSpread != 0 {
		t.Errorf("single-rack spread = %v, want 0", rt.MaxSpread)
	}
}

func TestEnvWindowMonths(t *testing.T) {
	months := monthKeys()
	if len(months) != 5 { // May..September 2019
		t.Errorf("env window months = %d, want 5", len(months))
	}
}
