package dataset

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/colfmt"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/syslog"
)

// IngestPolicy controls how dirty a telemetry file is allowed to be
// before reading it fails. The zero value is maximally lenient and
// tolerance-free at once: no dedup, no reordering, malformed lines
// skipped and counted, no malformed budget — the exact semantics the
// pristine-generator round-trip tests rely on.
type IngestPolicy struct {
	// Strict aborts on the first malformed record line.
	Strict bool
	// DedupWindow and ReorderWindow configure the scanner's relay-fault
	// tolerance (see syslog.ScanConfig).
	DedupWindow   int
	ReorderWindow time.Duration
	// MaxMalformedFrac fails the read when the malformed fraction of
	// record-bearing lines exceeds it (negative disables the budget; 0
	// means any malformed line is over budget). Mirrors the field-study
	// practice of rejecting a telemetry batch whose corruption rate says
	// the collector itself was broken.
	MaxMalformedFrac float64
}

// IngestReport is the per-category accounting of one syslog ingest.
type IngestReport struct {
	syslog.ScanStats
	// MalformedFrac is Malformed over all record-bearing lines
	// (everything except recognized noise), 0 when none were seen.
	MalformedFrac float64
	// BudgetExceeded reports that MalformedFrac exceeded the policy's
	// MaxMalformedFrac (the read still returns what it salvaged).
	BudgetExceeded bool
}

// maxCEChunk caps the CE chunks ReadSyslogPolicy gathers (1.7 MB each).
const maxCEChunk = 1 << 14

// ReadSyslogPolicy parses a merged syslog into typed record streams under
// an ingest policy. On a budget violation the salvaged records and full
// report are returned alongside the error so callers can still inspect
// what the file held.
func ReadSyslogPolicy(r io.Reader, pol IngestPolicy) (ces []mce.CERecord, dues []mce.DUERecord, hets []het.Record, rep IngestReport, err error) {
	sc := syslog.NewScannerConfig(r, syslog.ScanConfig{
		Strict:        pol.Strict,
		DedupWindow:   pol.DedupWindow,
		ReorderWindow: pol.ReorderWindow,
	})
	// CEs, nearly all of a log's records, gather in chunks that are never
	// regrown and are copied once into a slice of exactly their number:
	// append's regrowth allocates about five times the result over a
	// long log.
	var chunks [][]mce.CERecord
	var cur []mce.CERecord
	for sc.Scan() {
		p := sc.Record()
		switch p.Kind {
		case syslog.KindCE:
			if len(cur) == cap(cur) {
				if cur != nil {
					chunks = append(chunks, cur)
				}
				cur = make([]mce.CERecord, 0, min(max(2*cap(cur), 1024), maxCEChunk))
			}
			cur = append(cur, p.CE)
		case syslog.KindDUE:
			dues = append(dues, p.DUE)
		case syslog.KindHET:
			hets = append(hets, p.HET)
		}
	}
	ces = cur
	if len(chunks) > 0 {
		ces = slices.Concat(append(chunks, cur)...)
	}
	rep.ScanStats = sc.Stats()
	if recordLines := rep.Lines - rep.Other; recordLines > 0 {
		rep.MalformedFrac = float64(rep.Malformed) / float64(recordLines)
	}
	if err = sc.Err(); err != nil {
		return ces, dues, hets, rep, err
	}
	if pol.MaxMalformedFrac >= 0 && rep.MalformedFrac > pol.MaxMalformedFrac {
		rep.BudgetExceeded = true
		return ces, dues, hets, rep, fmt.Errorf("dataset: malformed fraction %.4f exceeds budget %.4f (%d of %d record lines)",
			rep.MalformedFrac, pol.MaxMalformedFrac, rep.Malformed, rep.Lines-rep.Other)
	}
	return ces, dues, hets, rep, nil
}

// ReadRecords sniffs the input format and reads typed record streams
// from either a columnar replay file (colfmt) or a merged syslog text
// stream. The colfmt path bypasses text parsing entirely: the report's
// Lines/Malformed counters stay zero (the format is checksummed, not
// tolerated — any corruption, or a CE record outside the ranges
// mce.CERecord.CheckRanges enforces, is a hard error) and the ingest
// policy's tolerance knobs do not apply. Text input goes through
// ReadSyslogPolicy unchanged.
func ReadRecords(r io.Reader, pol IngestPolicy) (ces []mce.CERecord, dues []mce.DUERecord, hets []het.Record, rep IngestReport, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	prefix, _ := br.Peek(colfmt.MagicLen)
	if !colfmt.Sniff(prefix) {
		return ReadSyslogPolicy(br, pol)
	}
	recs, err := colfmt.Read(br)
	if err != nil {
		return nil, nil, nil, rep, fmt.Errorf("dataset: columnar read: %w", err)
	}
	for i := range recs.CEs {
		if err := recs.CEs[i].CheckRanges(); err != nil {
			return nil, nil, nil, rep, fmt.Errorf("dataset: columnar read: CE record %d: %w", i, err)
		}
	}
	rep.CEs = len(recs.CEs)
	rep.DUEs = len(recs.DUEs)
	rep.HETs = len(recs.HETs)
	return recs.CEs, recs.DUEs, recs.HETs, rep, nil
}
