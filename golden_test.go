package astra

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/colfmt"
	"repro/internal/dataset"
)

// TestGoldenOutputDigests pins the bytes of whole-pipeline outputs: the
// full report (Run + Analyze + WriteReport), the colfmt encoding of one
// small fleet's CE, DUE and HET records (dataset.Build), and the CSVs
// astragen exports for that fleet at its default strides with -dirty
// 0.02 (the CE telemetry, its corrupted twin and the subsampled sensor
// readings). A change that moves a digest changed an output byte; if the
// change is meant to, recompute the digest and say why in CHANGES.md.
func TestGoldenOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were measured on amd64; on %s Go may fuse multiply-adds, so float digits can differ", runtime.GOARCH)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}

	t.Run("report", func(t *testing.T) {
		const want = "d50d9982259ba7f702ec2e471fcbf82d8aaf8f279aa871d5ec13adf0ed833829"
		study, err := Run(testCtx, Options{Seed: 1, Nodes: 96})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := study.WriteReport(&buf, mustAnalyze(study)); err != nil {
			t.Fatal(err)
		}
		if got := digest(buf.Bytes()); got != want {
			t.Errorf("report digest = %s, want %s", got, want)
		}
	})

	t.Run("colfmt", func(t *testing.T) {
		const want = "c9467e69ebea065fc58f6953a957e17a8d2485f4d864720fdb26e7b06b5bee46"
		cfg := dataset.DefaultConfig(5)
		cfg.Nodes = 48
		ds, err := dataset.Build(testCtx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := colfmt.Write(&buf, colfmt.Records{CEs: ds.CERecords, DUEs: ds.DUERecords, HETs: ds.HETRecords}); err != nil {
			t.Fatal(err)
		}
		if got := digest(buf.Bytes()); got != want {
			t.Errorf("colfmt digest = %s, want %s", got, want)
		}
	})

	t.Run("csv", func(t *testing.T) {
		cfg := dataset.DefaultConfig(5)
		cfg.Nodes = 48
		ds, err := dataset.Build(testCtx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// astragen -seed 5 -nodes 48 -dirty 0.02 -scan-stride 0.
		dir := t.TempDir()
		if _, err := ds.Export(testCtx, atomicio.OS, dir, dataset.ExportOptions{
			NoiseEvery:         200,
			SensorNodeStride:   16,
			SensorMinuteStride: 60,
			Dirty:              0.02,
		}); err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct{ name, want string }{
			{"ce-telemetry.csv", "df2d9736e4f557698ff5c5bff88681fe7c3e3083f8f74877d4e8f2decec91660"},
			{"ce-telemetry-dirty.csv", "e6f6f716debb37a3db3a93a1d10db3fcaf353eabf1a1fe0c45e2d82bae3fe76f"},
			{"sensors.csv", "c0e98bf0f40b54b321ce78322781b5a808b2679e1345b1c8c6527894a8e87910"},
		} {
			data, err := os.ReadFile(filepath.Join(dir, f.name))
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(data); got != f.want {
				t.Errorf("%s digest = %s, want %s", f.name, got, f.want)
			}
		}
	})
}
