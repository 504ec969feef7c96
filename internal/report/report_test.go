package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "BB")
	tb.AddRow("1", "2")
	tb.AddRow("333") // short row padded
	out := tb.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "333") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestBars(t *testing.T) {
	out := Bars("chart", []string{"x", "yy"}, []float64{1, 2})
	if !strings.Contains(out, "chart") || !strings.Contains(out, "█") {
		t.Errorf("bars output:\n%s", out)
	}
	// Zero values render without panic.
	out = Bars("", []string{"a"}, []float64{0})
	if strings.Contains(out, "█") {
		t.Error("zero value drew a bar")
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		4369731: "4,369,731",
		-12345:  "-12,345",
	}
	for v, want := range cases {
		if got := FormatCount(v); got != want {
			t.Errorf("FormatCount(%v) = %q, want %q", v, got, want)
		}
	}
	if got := FormatCount(1.5); got != "1.5" {
		t.Errorf("FormatCount(1.5) = %q", got)
	}
}

func TestFormatPct(t *testing.T) {
	if got := FormatPct(0.161); got != "16.1%" {
		t.Errorf("FormatPct = %q", got)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[simtime.Day]int{5: 1, 1: 2, 3: 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 5 {
		t.Errorf("SortedKeys = %v", keys)
	}
}

// TestAllFiguresRender smoke-tests every renderer on a small pipeline.
func TestAllFiguresRender(t *testing.T) {
	cfg := dataset.DefaultConfig(71)
	cfg.Nodes = 200
	ds, err := dataset.Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := mustCluster(ds.CERecords, core.DefaultClusterConfig())
	outputs := map[string]string{
		"Table1":   Table1(ds.Inventory, cfg.Nodes),
		"Figure2":  Figure2(ds.Env, cfg.Nodes, cfg.Seed),
		"Figure3":  Figure3(ds.Inventory),
		"Figure4a": Figure4a(core.BreakdownByMode(ds.CERecords, faults)),
		"Figure4b": Figure4b(core.ErrorsPerFaultDist(faults)),
		"Figure5":  Figure5(core.AnalyzePerNode(ds.CERecords, faults, cfg.Nodes), cfg.Nodes),
		"Figure6":  Figure6(core.AnalyzeStructures(ds.CERecords, faults)),
		"Figure7":  Figure7(core.AnalyzeStructures(ds.CERecords, faults)),
		"Figure8":  Figure8(core.AnalyzeBitAddress(faults)),
		"Figure9":  Figure9(core.AnalyzeTempWindows(ds.CERecords, ds.Env, core.Fig9Windows)),
		"Figure10": Figure10(core.AnalyzePositional(ds.CERecords, faults)),
		"Figure11": Figure11(core.AnalyzePositional(ds.CERecords, faults)),
		"Figure12": Figure12(core.AnalyzePositional(ds.CERecords, faults)),
		"Figure13": Figure13(core.AnalyzeTempDeciles(ds.CERecords, ds.Env, cfg.Nodes)),
		"Figure14": Figure14(core.AnalyzeUtilization(ds.CERecords, ds.Env, cfg.Nodes)),
		"Figure15": Figure15(core.AnalyzeUncorrectable(ds.HETRecords, cfg.Nodes*topology.SlotsPerNode, simtime.StudyEnd)),
	}
	for name, out := range outputs {
		if len(out) < 40 {
			t.Errorf("%s output suspiciously short:\n%s", name, out)
		}
		if strings.Contains(out, "%!") {
			t.Errorf("%s output contains a formatting bug:\n%s", name, out)
		}
	}
	// Key headline strings appear.
	if !strings.Contains(outputs["Table1"], "processor") {
		t.Error("Table1 missing processor row")
	}
	if !strings.Contains(outputs["Figure15"], "FIT/DIMM") {
		t.Error("Figure15 missing FIT")
	}
}

// TestSVGFigures smoke-tests the SVG renderers over a small pipeline.
func TestSVGFigures(t *testing.T) {
	cfg := dataset.DefaultConfig(72)
	cfg.Nodes = 150
	ds, err := dataset.Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := mustCluster(ds.CERecords, core.DefaultClusterConfig())
	breakdown := core.BreakdownByMode(ds.CERecords, faults)
	perNode := core.AnalyzePerNode(ds.CERecords, faults, cfg.Nodes)
	structures := core.AnalyzeStructures(ds.CERecords, faults)
	bitAddr := core.AnalyzeBitAddress(faults)
	positional := core.AnalyzePositional(ds.CERecords, faults)
	svgs := SVGFigures(SVGInputs{
		Breakdown:   &breakdown,
		PerNode:     &perNode,
		Structures:  &structures,
		BitAddress:  &bitAddr,
		TempWindows: core.AnalyzeTempWindows(ds.CERecords, ds.Env, core.Fig9Windows),
		Positional:  &positional,
		TempDeciles: core.AnalyzeTempDeciles(ds.CERecords, ds.Env, cfg.Nodes),
		Inventory:   ds.Inventory,
	})
	want := []string{
		"fig3-replacements", "fig4a-monthly-errors", "fig5a-faults-per-node",
		"fig5b-node-cdf", "fig6-socket", "fig7-slot", "fig8a-bit-positions",
		"fig9-window-60m", "fig10-region", "fig12-rack", "fig13-deciles",
	}
	for _, id := range want {
		svg, ok := svgs[id]
		if !ok {
			t.Errorf("figure %s missing (have %d figures)", id, len(svgs))
			continue
		}
		if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
			t.Errorf("%s: not a complete SVG document", id)
		}
	}
	// Nil inputs render nothing and do not panic.
	if empty := SVGFigures(SVGInputs{}); len(empty) != 0 {
		t.Errorf("empty inputs produced %d figures", len(empty))
	}
}
