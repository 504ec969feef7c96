package astra

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/dataset"
)

// TestGoldenOutputDigests pins the bytes of two whole-pipeline outputs:
// the full report (Run + Analyze + WriteReport) and the colfmt encoding of
// one small fleet's CE, DUE and HET records (dataset.Build). A change
// that moves either digest changed an output byte; if the change is meant
// to, recompute the digest and say why in CHANGES.md.
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
}
