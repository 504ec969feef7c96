package dataset

import (
	"bufio"
	"encoding/csv"
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
	// Parallelism is the syslog parse worker count: 0 uses all CPUs, 1
	// forces the serial scanner. Output is bit-identical at any setting.
	Parallelism int
	// BlockSize is the parallel scanner's read-block size (0 uses
	// syslog.DefaultBlockSize). Ignored when Parallelism resolves to 1.
	BlockSize int
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
	sc := syslog.NewBlockScanner(r, syslog.BlockScanConfig{
		ScanConfig: syslog.ScanConfig{
			Strict:        pol.Strict,
			DedupWindow:   pol.DedupWindow,
			ReorderWindow: pol.ReorderWindow,
		},
		Workers:   pol.Parallelism,
		BlockSize: pol.BlockSize,
	})
	defer sc.Close()
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

// CSVReport accounts for a lenient CSV read: how many data rows were
// seen, how many were rejected, and a capped sample of the reasons.
type CSVReport struct {
	Rows int
	Bad  int
	// Errors holds up to maxCSVErrors representative row errors.
	Errors []string
}

// maxCSVErrors caps the per-row error sample retained in a CSVReport so a
// fully corrupt multi-gigabyte file cannot balloon memory.
const maxCSVErrors = 10

func (c *CSVReport) addError(row int, err error) {
	c.Bad++
	if len(c.Errors) < maxCSVErrors {
		c.Errors = append(c.Errors, fmt.Sprintf("row %d: %v", row, err))
	}
}

// lenientRows iterates a CSV's data rows one at a time, tolerating rows
// with the wrong field count or broken quoting: parse is attempted per
// row, failures are counted and skipped. The header row is consumed and
// validated only for presence.
func lenientRows(r io.Reader, wantFields int, rep *CSVReport, handle func(row []string) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	if _, err := cr.Read(); err != nil {
		return fmt.Errorf("dataset: CSV header: %w", err)
	}
	for rowNum := 2; ; rowNum++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			rep.Rows++
			rep.addError(rowNum, err)
			continue
		}
		rep.Rows++
		if len(row) != wantFields {
			rep.addError(rowNum, fmt.Errorf("%d fields, want %d", len(row), wantFields))
			continue
		}
		if err := handle(row); err != nil {
			rep.addError(rowNum, err)
		}
	}
}

// ReadCETelemetryCSVLenient parses the open-data CE CSV, skipping and
// counting unparseable rows instead of aborting. The error is non-nil
// only when the file itself is unreadable (no header, I/O failure).
func ReadCETelemetryCSVLenient(r io.Reader) ([]mce.CERecord, CSVReport, error) {
	var out []mce.CERecord
	var rep CSVReport
	err := lenientRows(r, len(ceCSVHeader), &rep, func(row []string) error {
		rec, err := parseCECSVRow(row)
		if err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	return out, rep, err
}

// ReadSensorCSVLenient parses the environmental release, skipping and
// counting unparseable rows instead of aborting. Implausible-but-parsed
// values are kept with Valid=false, exactly as in the strict reader; rows
// that do not parse at all are dropped and counted.
func ReadSensorCSVLenient(r io.Reader) ([]SensorSample, CSVReport, error) {
	var out []SensorSample
	var rep CSVReport
	err := lenientRows(r, 4, &rep, func(row []string) error {
		s, err := parseSensorCSVRow(row)
		if err != nil {
			return err
		}
		out = append(out, s)
		return nil
	})
	return out, rep, err
}
