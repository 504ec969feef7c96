// Command astraparse is the ETL front end: it reads a raw merged syslog
// (as written by astragen or by the machine itself), validates and
// classifies every line, and emits typed CSV files — the "extract relevant
// reliability information from the various system logs" step of the
// paper's methodology (§1).
//
// Real relay logs are dirty: truncated, duplicated, reordered, garbled.
// By default astraparse skips and counts malformed lines; -strict makes
// the first one fatal, -max-malformed bounds how dirty a log may be
// before the exit status is non-zero, and -dedup-window/-reorder-window
// enable relay-fault tolerance.
//
// Usage:
//
//	astraparse -syslog astra-data/astra-syslog.log -out ./parsed
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/atomicio"
	"repro/internal/colfmt"
	"repro/internal/dataset"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/syslog"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if code != 0 && ctx.Err() != nil {
		code = 130
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astraparse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in            = fs.String("syslog", "", "input syslog path (required)")
		out           = fs.String("out", "parsed", "output directory")
		strict        = fs.Bool("strict", false, "treat the first malformed record line as fatal")
		maxMalformed  = fs.Float64("max-malformed", -1, "exit non-zero when the malformed fraction of record lines exceeds this (negative disables)")
		dedupWindow   = fs.Int("dedup-window", 0, "suppress record lines identical to one of the last N (0 disables)")
		reorderWindow = fs.Duration("reorder-window", 0, "resequence records arriving up to this much late (0 disables)")
		emit          = fs.String("emit", "csv", "output format: csv, colfmt (columnar binary replay), or both")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fs.Usage()
		return 2
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintf(stderr, "astraparse: %v\n", err)
		return 1
	}
	defer f.Close()

	emitCSV := *emit == "csv" || *emit == "both"
	emitCol := *emit == "colfmt" || *emit == "both"
	if !emitCSV && !emitCol {
		fmt.Fprintf(stderr, "astraparse: unknown -emit format %q (want csv, colfmt or both)\n", *emit)
		return 2
	}

	pol := dataset.IngestPolicy{
		Strict:           *strict,
		DedupWindow:      *dedupWindow,
		ReorderWindow:    *reorderWindow,
		MaxMalformedFrac: *maxMalformed,
	}
	// The scan aborts mid-file on SIGINT/SIGTERM: the input reader polls
	// ctx, so a cancelled parse surfaces as a read error and the salvage
	// logic below decides what is still worth writing. ReadRecords sniffs
	// the input, so a columnar replay file works here too.
	ces, dues, hets, rep, readErr := dataset.ReadRecords(&ctxReader{ctx: ctx, r: f}, pol)
	// On a budget violation the salvage is still written before the
	// non-zero exit; a strict failure aborts with nothing salvaged.
	if readErr != nil && (*strict || len(ces)+len(dues)+len(hets) == 0) {
		fmt.Fprintf(stderr, "astraparse: %v\n", readErr)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "astraparse: %v\n", err)
		return 1
	}

	// Outputs land atomically (temp file + fsync + rename): a crash or
	// interrupt mid-write never leaves a truncated CSV at a final path.
	// The salvage of an interrupted parse is still written below with a
	// fresh context — the data already in memory is valid.
	wctx := context.WithoutCancel(ctx)
	var wrote []string
	writeOut := func(name string, render func(io.Writer) error) bool {
		path := filepath.Join(*out, name)
		if _, err := atomicio.WriteFile(wctx, atomicio.OS, path, render); err != nil {
			fmt.Fprintf(stderr, "astraparse: writing %s: %v\n", path, err)
			return false
		}
		wrote = append(wrote, path)
		return true
	}
	if emitCSV {
		ok := writeOut("ce-telemetry.csv", func(w io.Writer) error {
			return dataset.WriteCERecordsCSV(w, ces)
		}) && writeOut("due-telemetry.csv", func(w io.Writer) error {
			return writeDUECSV(w, dues)
		}) && writeOut("het-events.csv", func(w io.Writer) error {
			return writeHETCSV(w, hets)
		})
		if !ok {
			return 1
		}
	}
	if emitCol {
		if !writeOut("records.col", func(w io.Writer) error {
			return colfmt.Write(w, colfmt.Records{CEs: ces, DUEs: dues, HETs: hets})
		}) {
			return 1
		}
	}

	fmt.Fprintf(stdout, "scanned %d lines: %d CE, %d DUE, %d HET, %d other, %d malformed\n",
		rep.Lines, rep.CEs, rep.DUEs, rep.HETs, rep.Other, rep.Malformed)
	fmt.Fprintf(stdout, "ingest health: truncated %d, garbage %d, duplicated %d, reordered %d, dropped-out-of-order %d\n",
		rep.Truncated, rep.Garbage, rep.Duplicated, rep.Reordered, rep.DroppedOutOfOrder)
	fmt.Fprintf(stdout, "wrote %s\n", strings.Join(wrote, ", "))
	if rep.Malformed > 0 {
		fmt.Fprintf(stdout, "warning: %.3f%% of record lines were malformed and excluded\n", 100*rep.MalformedFrac)
	}
	if readErr != nil {
		fmt.Fprintf(stderr, "astraparse: %v\n", readErr)
		return 1
	}
	return 0
}

// ctxReader aborts a streaming read when ctx is cancelled, turning a
// SIGINT during a multi-gigabyte parse into an ordinary read error.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// writeDUECSV and writeHETCSV render rows through the append emitters into
// one reused buffer (no field needs CSV quoting), mirroring the CE path in
// internal/dataset.
func writeDUECSV(f io.Writer, dues []mce.DUERecord) error {
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.WriteString("timestamp,node,cause,addr,fatal\n"); err != nil {
		return err
	}
	var buf []byte
	for i := range dues {
		d := &dues[i]
		buf = syslog.AppendTimestamp(buf[:0], d.Time)
		buf = append(buf, ',')
		buf = d.Node.AppendString(buf)
		buf = append(buf, ',')
		buf = append(buf, d.Cause.String()...)
		buf = append(buf, ",0x"...)
		buf = strconv.AppendUint(buf, uint64(d.Addr), 16)
		if d.Fatal {
			buf = append(buf, ",1\n"...)
		} else {
			buf = append(buf, ",0\n"...)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeHETCSV(f io.Writer, hets []het.Record) error {
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.WriteString("timestamp,node,event,severity,addr\n"); err != nil {
		return err
	}
	var buf []byte
	for i := range hets {
		h := &hets[i]
		buf = syslog.AppendTimestamp(buf[:0], h.Time)
		buf = append(buf, ',')
		buf = h.Node.AppendString(buf)
		buf = append(buf, ',')
		buf = append(buf, h.Type.String()...)
		buf = append(buf, ',')
		buf = append(buf, h.Severity.String()...)
		buf = append(buf, ",0x"...)
		buf = strconv.AppendUint(buf, uint64(h.Addr), 16)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
