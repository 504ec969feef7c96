// Command astragen generates a synthetic Astra dataset in the paper's §2.4
// open-data formats: a merged syslog (CE + DUE + HET records plus kernel
// noise), the CE telemetry CSV, a subsampled environmental sensor CSV, and
// the inventory replacement log.
//
// Usage:
//
//	astragen -out ./data -seed 1 -nodes 2592
//
// The output is fully determined by the flags; re-running reproduces
// byte-identical files. Every artifact is written atomically (temp file +
// fsync + rename) and recorded in a checksummed MANIFEST.json, so an
// interrupted run (Ctrl-C, crash, full disk) never leaves a partial file
// at a final path. Re-running with -resume skips artifacts whose
// checksums already verify and produces a tree byte-identical to an
// uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/atomicio"
	"repro/internal/dataset"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("astragen: ")
	var (
		out          = flag.String("out", "astra-data", "output directory")
		seed         = flag.Uint64("seed", 1, "random seed")
		nodes        = flag.Int("nodes", 432, "system size in nodes (full Astra is 2592)")
		noiseEvery   = flag.Int("noise-every", 200, "interleave one kernel-noise line per N records (0 disables)")
		nodeStride   = flag.Int("sensor-node-stride", 16, "export sensor data for every Nth node")
		minuteStride = flag.Int("sensor-minute-stride", 60, "export sensor data every N minutes")
		scanStride   = flag.Int("scan-stride", 7, "write an inventory scan file every N days (0 disables)")
		dirty        = flag.Float64("dirty", 0, "also write astra-syslog-dirty.log and ce-telemetry-dirty.csv corrupted at this combined rate (0 disables)")
		resume       = flag.Bool("resume", false, "skip artifacts already recorded in the output manifest whose checksums verify")
	)
	flag.Parse()
	if *dirty < 0 || *dirty > 1 {
		log.Fatal("-dirty must be in [0, 1]")
	}
	if *nodes < 1 || *nodes > topology.Nodes {
		log.Fatalf("-nodes must be in [1, %d]", topology.Nodes)
	}

	// SIGINT/SIGTERM cancel the pipeline; the exporter checkpoints after
	// every completed artifact, so an interrupted run leaves a valid
	// manifest behind for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := dataset.DefaultConfig(*seed)
	cfg.Nodes = *nodes
	ds, err := dataset.Build(ctx, cfg)
	if err != nil {
		fail(err)
	}
	if err := ds.Verify(); err != nil {
		log.Fatalf("self-check failed, refusing to publish: %v", err)
	}

	rep, err := ds.Export(ctx, atomicio.OS, *out, dataset.ExportOptions{
		NoiseEvery:         *noiseEvery,
		SensorNodeStride:   *nodeStride,
		SensorMinuteStride: *minuteStride,
		ScanStride:         *scanStride,
		Dirty:              *dirty,
		Resume:             *resume,
	})
	scans := 0
	for _, f := range rep.Files {
		verb := "wrote"
		if f.Skipped {
			verb = "kept "
		}
		if len(f.Name) > 5 && f.Name[:6] == "scans/" {
			scans++
			continue
		}
		fmt.Printf("%s %-24s %10d bytes  sha256=%s...\n", verb, f.Name, f.Size, f.SHA256[:12])
	}
	if scans > 0 {
		fmt.Printf("wrote/kept %d inventory scans under %s/scans\n", scans, *out)
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("\nseed=%d nodes=%d (%d artifacts written, %d reused)\n", *seed, *nodes, rep.Written, rep.Skipped)
	fmt.Printf("correctable errors: generated %d, logged %d, dropped by CE log space %d (%.2f%%)\n",
		ds.EdacStats.Offered, ds.EdacStats.Logged, ds.EdacStats.Dropped, 100*ds.EdacStats.LossFraction())
	fmt.Printf("uncorrectable errors: %d; HET records: %d; replacements: %d\n",
		len(ds.DUERecords), len(ds.HETRecords), len(ds.Inventory.Replacements))
}

// fail reports a pipeline error; an interrupt exits with the conventional
// 130 and points at -resume, since the partial output is reusable.
func fail(err error) {
	if errors.Is(err, context.Canceled) {
		log.Println("interrupted; completed artifacts are recorded in MANIFEST.json — re-run with -resume to continue")
		os.Exit(130)
	}
	log.Fatal(err)
}
