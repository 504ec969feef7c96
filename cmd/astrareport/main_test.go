package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	astra "repro"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/dataset"
	"repro/internal/mce"
	"repro/internal/paper"
	"repro/internal/report"
)

// writeStudySyslog renders a small dataset's syslog, optionally corrupted,
// and returns the dataset plus the log path.
func writeStudySyslog(t *testing.T, seed uint64, nodes int, cfg *corrupt.Config) (*dataset.Dataset, string) {
	t.Helper()
	dcfg := dataset.DefaultConfig(seed)
	dcfg.Nodes = nodes
	ds, err := dataset.Build(context.Background(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 50); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if cfg != nil {
		var dirty bytes.Buffer
		if _, err := corrupt.New(*cfg).Process(bytes.NewReader(data), &dirty); err != nil {
			t.Fatal(err)
		}
		data = dirty.Bytes()
	}
	path := filepath.Join(t.TempDir(), "syslog.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ds, path
}

func tolerantPolicy() dataset.IngestPolicy {
	return dataset.IngestPolicy{ReorderWindow: 2 * time.Minute, MaxMalformedFrac: -1}
}

// A clean, sorted log must round-trip through the hardened path untouched:
// same record counts as the in-memory dataset, no sanitizer repairs.
func TestBuildStudyCleanParity(t *testing.T) {
	ds, log := writeStudySyslog(t, 7, 64, nil)
	study, err := buildStudy(context.Background(), io.Discard, 7, 64, log, tolerantPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(study.Dataset.CERecords), len(ds.CERecords); got != want {
		t.Errorf("CE records: got %d, want %d", got, want)
	}
	if got, want := len(study.Dataset.DUERecords), len(ds.DUERecords); got != want {
		t.Errorf("DUE records: got %d, want %d", got, want)
	}
	if got, want := len(study.Dataset.HETRecords), len(ds.HETRecords); got != want {
		t.Errorf("HET records: got %d, want %d", got, want)
	}
}

// A corrupted log must still build a study — salvaging most records and
// producing a non-empty fault set — rather than erroring or panicking.
func TestBuildStudyCorruptedSyslog(t *testing.T) {
	cfg := corrupt.Uniform(9, 0.02)
	ds, log := writeStudySyslog(t, 7, 64, &cfg)
	study, err := buildStudy(context.Background(), io.Discard, 7, 64, log, tolerantPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if got, min := len(study.Dataset.CERecords), len(ds.CERecords)*9/10; got < min {
		t.Errorf("salvaged only %d of %d CE records, want >= %d", got, len(ds.CERecords), min)
	}
	if len(study.Faults) == 0 {
		t.Error("no faults clustered from salvaged records")
	}
	results, err := study.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results.Breakdown.Total == 0 {
		t.Error("analysis of salvaged records produced empty breakdown")
	}
}

// syntheticStudy is the composition buildStudy replaced, kept as its
// reference: run the whole synthetic pipeline (astra.Run), then swap in
// the file's records, sanitized, and their clustered faults.
func syntheticStudy(ctx context.Context, w io.Writer, seed uint64, nodes int, path string, pol dataset.IngestPolicy) (*astra.Study, error) {
	study, err := astra.Run(ctx, astra.Options{Seed: seed, Nodes: nodes})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ces, dues, hets, rep, err := dataset.ReadRecords(f, pol)
	if err != nil {
		return nil, err
	}
	sanitized, san := core.SanitizeRecords(ces)
	if san.WasUnsorted {
		ces = sanitized
	} else {
		san = core.SanitizeReport{In: san.In, Out: san.In}
	}
	fmt.Fprintf(w, "parsed %d lines (%d malformed) from %s\n", rep.Lines, rep.Malformed, path)
	fmt.Fprintln(w, report.IngestHealth(rep, san))
	study.Dataset.CERecords = ces
	study.Dataset.DUERecords = dues
	study.Dataset.HETRecords = hets
	if study.Faults, err = core.Cluster(ctx, ces, core.DefaultClusterConfig()); err != nil {
		return nil, err
	}
	return study, nil
}

// renderStudy appends to w everything astrareport can print for a study
// after its ingest health: every section, the last line, and the
// -experiments table.
func renderStudy(t *testing.T, w *bytes.Buffer, study *astra.Study) {
	t.Helper()
	results, err := study.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range sections {
		w.WriteString(sec.render(study, results))
		w.WriteByte('\n')
	}
	w.WriteString(footer(study))
	w.WriteString(paper.Markdown(paper.Compare(study, results)))
}

// writeColfmt writes a dataset's records as a colfmt file under dir.
func writeColfmt(t testing.TB, dir string, ds *dataset.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := colfmt.Write(&buf, colfmt.Records{CEs: ds.CERecords, DUEs: ds.DUERecords, HETs: ds.HETRecords}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "records.col")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildStudy must print exactly what the synthetic composition printed,
// for syslog text (clean and corrupted) and colfmt input, two fleets, the
// figures and the -experiments rows.
func TestBuildStudyMatchesSyntheticComposition(t *testing.T) {
	ctx := context.Background()
	dirty := corrupt.Uniform(9, 0.02)
	for _, fleet := range []struct {
		seed  uint64
		nodes int
	}{{7, 64}, {3, 120}} {
		ds, text := writeStudySyslog(t, fleet.seed, fleet.nodes, nil)
		_, dirtyText := writeStudySyslog(t, fleet.seed, fleet.nodes, &dirty)
		inputs := map[string]string{"text": text, "dirty text": dirtyText, "colfmt": writeColfmt(t, t.TempDir(), ds)}
		for kind, path := range inputs {
			pol := tolerantPolicy()
			var got, want bytes.Buffer
			study, err := buildStudy(ctx, &got, fleet.seed, fleet.nodes, path, pol)
			if err != nil {
				t.Fatal(err)
			}
			renderStudy(t, &got, study)
			ref, err := syntheticStudy(ctx, &want, fleet.seed, fleet.nodes, path, pol)
			if err != nil {
				t.Fatal(err)
			}
			renderStudy(t, &want, ref)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
				for i := 0; i < len(g) && i < len(w); i++ {
					if g[i] != w[i] {
						t.Errorf("fleet %d/%d %s: line %d is %q, want %q", fleet.seed, fleet.nodes, kind, i+1, g[i], w[i])
						break
					}
				}
				if len(g) != len(w) {
					t.Errorf("fleet %d/%d %s: %d lines, want %d", fleet.seed, fleet.nodes, kind, len(g), len(w))
				}
			}
		}
	}
}

// BenchmarkBuildStudy times building a study from a 256-node fleet's
// colfmt file: "synthetic" runs the whole synthetic pipeline first and
// throws its records away, "fleet" is buildStudy. ns/record is per
// record in the file.
func BenchmarkBuildStudy(b *testing.B) {
	const seed, nodes = 1007, 256
	cfg := dataset.DefaultConfig(seed)
	cfg.Nodes = nodes
	ds, err := dataset.Build(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	path := writeColfmt(b, b.TempDir(), ds)
	records := len(ds.CERecords) + len(ds.DUERecords) + len(ds.HETRecords)
	pol := tolerantPolicy()
	for _, bc := range []struct {
		name  string
		build func(context.Context, io.Writer, uint64, int, string, dataset.IngestPolicy) (*astra.Study, error)
	}{{"synthetic", syntheticStudy}, {"fleet", buildStudy}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.build(context.Background(), io.Discard, seed, nodes, path, pol); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
		})
	}
}

// A CE line inside every field's grammar range whose line bit
// (bitpos & 0x3ff) lies past the last codeword bit used to index past
// the clustering bitset and kill the report. From syslog text it must
// count as one more malformed line; in a colfmt file it must be an error
// naming the record.
func TestBuildStudyRejectsOutOfRangeLineBit(t *testing.T) {
	ctx := context.Background()
	ds, log := writeStudySyslog(t, 7, 64, nil)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")[:3000]
	at := 1500
	for !strings.Contains(lines[at], " CE ") {
		at++
	}
	fields := strings.Fields(lines[at])
	for i, f := range fields {
		if strings.HasPrefix(f, "bitpos=") {
			fields[i] = "bitpos=0x03ff"
		}
	}
	bad := strings.Join(fields, " ") + "\n"
	dir := t.TempDir()
	clean, dirty := filepath.Join(dir, "clean.log"), filepath.Join(dir, "dirty.log")
	if err := os.WriteFile(clean, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	withBad := append(append(append([]string(nil), lines[:at+1]...), bad), lines[at+1:]...)
	if err := os.WriteFile(dirty, []byte(strings.Join(withBad, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	parsed := func(path string) (n, malformed int) {
		var out bytes.Buffer
		study, err := buildStudy(ctx, &out, 7, 64, path, tolerantPolicy())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		renderStudy(t, &out, study)
		if _, err := fmt.Sscanf(out.String(), "parsed %d lines (%d malformed)", &n, &malformed); err != nil {
			t.Fatalf("%s: %v in %.80q", path, err, out.String())
		}
		return n, malformed
	}
	n0, m0 := parsed(clean)
	if n1, m1 := parsed(dirty); n1 != n0+1 || m1 != m0+1 {
		t.Errorf("with %q: parsed %d lines (%d malformed), want %d (%d)", bad, n1, m1, n0+1, m0+1)
	}

	ces := append([]mce.CERecord(nil), ds.CERecords...)
	ces[42].BitPos = 0x3ff
	col := writeColfmt(t, t.TempDir(), &dataset.Dataset{CERecords: ces, DUERecords: ds.DUERecords, HETRecords: ds.HETRecords})
	_, err = buildStudy(ctx, io.Discard, 7, 64, col, tolerantPolicy())
	if err == nil || !strings.Contains(err.Error(), "CE record 42") {
		t.Errorf("colfmt file with line bit 0x3ff: err %v, want one naming CE record 42", err)
	}
}
