package syslog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/corrupt"
	"repro/internal/topology"
)

// scanResult captures everything observable about one complete scan, so
// tests compare two scans with a single DeepEqual.
type scanResult struct {
	Records []Parsed
	Stats   ScanStats
	Err     string
	Offset  int64
}

func drainScanner(sc *Scanner) scanResult {
	var res scanResult
	for sc.Scan() {
		res.Records = append(res.Records, sc.Record())
	}
	res.Stats = sc.Stats()
	if err := sc.Err(); err != nil {
		res.Err = err.Error()
	}
	res.Offset = sc.Offset()
	return res
}

// synthLog renders a deterministic pseudo-random log with every line
// category the tolerance machinery reacts to: CE/DUE/HET records with
// bounded timestamp skew (reorder heap), exact repeats at varying
// distances (dedup ring), kernel noise, and blank lines.
func synthLog(lines int) string {
	var b strings.Builder
	base := sampleCE().Time
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	history := make([]string, 0, lines)
	for i := 0; i < lines; i++ {
		var line string
		switch next(10) {
		case 0:
			line = "kernel: ordinary chatter " + fmt.Sprint(i)
		case 1:
			if len(history) > 0 {
				// Replay a recent line verbatim: relay duplication.
				line = history[len(history)-1-int(next(uint64(min(len(history), 12))))]
				break
			}
			fallthrough
		case 2:
			r := sampleDUE()
			r.Time = base.Add(time.Duration(i)*time.Second - time.Duration(next(40))*time.Second)
			line = FormatDUE(r)
		case 3:
			r := sampleHET()
			r.Time = base.Add(time.Duration(i) * time.Second)
			line = FormatHET(r)
		case 4:
			line = ""
		default:
			r := sampleCE()
			// Skew some arrivals backwards so the reorder window both
			// recovers and drops records.
			r.Time = base.Add(time.Duration(i)*time.Second - time.Duration(next(50))*time.Second)
			r.Addr = topology.PhysAddr(0x1000 + next(64)*0x40)
			r.Col = int(next(32))
			line = FormatCE(r)
		}
		history = append(history, line)
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// corruptLog passes the clean log through internal/corrupt at rate p.
func corruptLog(t testing.TB, clean string, seed uint64, p float64) string {
	t.Helper()
	var buf bytes.Buffer
	c := corrupt.New(corrupt.Uniform(seed, p))
	if _, err := c.Process(strings.NewReader(clean), &buf); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	return buf.String()
}

// TestScanAllocs pins what a whole scan by a fresh zero-config Scanner
// allocates over BenchmarkScanTolerant's log: its buffers growing to
// their steady sizes, and nothing per line or per host.
func TestScanAllocs(t *testing.T) {
	log := tolerantLog(20000)
	n := testing.AllocsPerRun(5, func() {
		sc := NewScanner(bytes.NewReader(log))
		for sc.Scan() {
		}
		if err := sc.Err(); err != nil {
			panic(err)
		}
	})
	// 9 when pinned; the ceiling allows the larger of +10% and +16.
	if n > 25 {
		t.Errorf("scan: %v allocs, want at most 25", n)
	}
}

// TestScannerTooLong pins the line limit: a line over maxLineBytes stops
// the scan with bufio.ErrTooLong, after delivering the lines before it and
// without consuming the long line.
func TestScannerTooLong(t *testing.T) {
	ce := FormatCE(sampleCE())
	in := ce + "\n" + strings.Repeat("y", maxLineBytes+5) + "\n" + ce + "\n"
	sc := NewScanner(strings.NewReader(in))
	got := drainScanner(sc)
	if !errors.Is(sc.Err(), bufio.ErrTooLong) {
		t.Fatalf("scan error = %v, want %v", sc.Err(), bufio.ErrTooLong)
	}
	want := scanResult{
		Records: []Parsed{{Kind: KindCE, CE: sampleCE()}},
		Stats:   ScanStats{Lines: 1, CEs: 1},
		Err:     got.Err,
		Offset:  int64(len(ce) + 1),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}

// failAfterReader yields its payload then a non-EOF read error.
type failAfterReader struct {
	r   io.Reader
	err error
}

func (f *failAfterReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		return n, f.err
	}
	return n, err
}

// TestScannerReadError pins that a mid-stream I/O failure surfaces only
// after every buffered line: the records, stats and offset are those of
// the same bytes read to a clean EOF, and the error wraps the reader's.
func TestScannerReadError(t *testing.T) {
	in := synthLog(500)
	boom := errors.New("boom")
	sc := NewScanner(&failAfterReader{r: strings.NewReader(in), err: boom})
	got := drainScanner(sc)
	if !errors.Is(sc.Err(), boom) {
		t.Fatalf("scan error = %v, want it to wrap %v", sc.Err(), boom)
	}
	want := drainScanner(NewScanner(strings.NewReader(in)))
	want.Err = got.Err
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read error cut the scan short: %d records, stats %+v, offset %d; want %d, %+v, %d",
			len(got.Records), got.Stats, got.Offset, len(want.Records), want.Stats, want.Offset)
	}
}
