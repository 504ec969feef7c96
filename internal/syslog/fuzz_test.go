package syslog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/mce"
)

// FuzzParseLine asserts the parser's contract on arbitrary bytes: it never
// panics, it agrees with the general byte grammar alone (the canonical CE
// path may only take lines that grammar accepts, with the same record),
// every error it returns is classified as exactly one of the two
// corruption categories, and every CE it accepts clusters without
// panicking. The seed corpus covers the realistic dirty inputs the
// corrupt package produces: truncations at every interesting boundary,
// garbled fields, binary noise, and torn/merged lines.
func FuzzParseLine(f *testing.F) {
	ce := FormatCE(sampleCE())
	due := FormatDUE(sampleDUE())
	hetLine := FormatHET(sampleHET())

	seeds := []string{
		"", " ", "\x00\x01\x02",
		ce, due, hetLine,
		// Truncations: mid-header, mid-marker, mid-field, trailing cut.
		ce[:10], ce[:25], ce[:len(ce)/2], ce[:len(ce)-1], ce[:len(ce)-7],
		due[:len(due)/2], hetLine[:len(hetLine)-4],
		// Garbling: bad values, duplicate fields, swapped bytes.
		strings.Replace(ce, "rank=1", "rank=zz", 1),
		strings.Replace(ce, "socket=1", "socket=9", 1),
		// In the grammar's bitpos range, but line bit 0x3ff is past the
		// last codeword bit (topology.MaxLineBitPosition).
		strings.Replace(ce, "bitpos=0x1e21", "bitpos=0x03ff", 1),
		ce + " rank=1",
		strings.Replace(due, "fatal=1", "fatal=yes", 1),
		strings.Replace(hetLine, "severity=", "sev eritY=", 1),
		// Torn and merged lines (rotation splits, interleaved writes).
		ce[:30] + due[30:],
		ce + due,
		"\xff\xfe" + ce,
		"2019-05-20T13:04:55Z kernel: EDAC tx2_mc: CE", // marker, no host
		"9999-99-99T99:99:99Z astra-r00c00n0 kernel: EDAC tx2_mc: CE socket=0",
		// Non-ASCII whitespace between header fields and between pairs,
		// and a non-space rune glued to a value.
		respace(ce, ceMarker, "\u0085"),
		respace(due, dueMarker, "\u00a0"),
		respace(hetLine, hetMarker, "\u2003"),
		respace(ce, ceMarker, "\u3000"),
		strings.Replace(ce, "rank=1", "rank=1\u00a0\u3000", 1),
		strings.Replace(ce, "rank=1", "rank=1\u200b", 1),
		// More than 32 key=value tokens: unknown keys are ignored, and a
		// duplicate or malformed token past the 32nd decides the verdict.
		ce + extraFields(24, ""),
		ce + extraFields(30, " x3=1"),
		ce + extraFields(30, " rank=1"),
		ce + extraFields(30, " x=") + " y=1",
		ce + extraFields(30, " x="),
		due + extraFields(40, " fatal=0"),
		hetLine + extraFields(40, ""),
		// 20-byte timestamps the canonical path must not take.
		"2019-05-20T13:04:55z" + ce[20:],
		"2019-05-20 13:04:55Z" + ce[20:],
		"2019-02-30T13:04:55Z" + ce[20:],
		"2019-05-20T24:00:00Z" + ce[20:],
		"2019-06-30T23:59:60Z" + ce[20:],
		"+019-05-20T13:04:55Z" + ce[20:],
		"2019-05-20T13:04:5aZ" + ce[20:],
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, line string) {
		// Differential contract: the decoder (canonical CE path first)
		// must agree with the general byte grammar alone on every input —
		// success, record values, and error category. Fresh Decoders
		// exercise the cold caches; the warm path is covered by the
		// repeated corpus entries.
		var dec, gen Decoder
		p, err := dec.ParseLineBytes([]byte(line)) // must not panic
		var gp Parsed
		gerr := gen.parseGeneral([]byte(line), &gp) // must not panic either
		if (err == nil) != (gerr == nil) {
			t.Errorf("decoder/general grammar disagreement:\n decoder err: %v\n general err: %v\n line: %q", err, gerr, line)
		} else if err != nil {
			if errors.Is(err, ErrTruncated) != errors.Is(gerr, ErrTruncated) {
				t.Errorf("error category disagreement:\n decoder: %v\n general: %v\n line: %q", err, gerr, line)
			}
		} else if p != gp {
			t.Errorf("record disagreement:\n decoder: %+v\n general: %+v\n line: %q", p, gp, line)
		}
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrGarbled) {
				t.Errorf("unclassified parse error: %v", err)
			}
			return
		}
		if p.Kind == KindOther {
			return
		}
		if p.Kind == KindCE {
			if _, err := core.Cluster(context.Background(), []mce.CERecord{p.CE}, core.DefaultClusterConfig()); err != nil {
				t.Errorf("accepted CE does not cluster: %v\n line: %q", err, line)
			}
		}
		// A successfully parsed record must format back to a valid line
		// that parses to the same record (canonicalization is allowed to
		// change the bytes, not the meaning). Skip inputs that aren't
		// valid UTF-8 — Format always emits UTF-8.
		if !utf8.ValidString(line) {
			return
		}
		var round string
		switch p.Kind {
		case KindCE:
			round = FormatCE(p.CE)
		case KindDUE:
			round = FormatDUE(p.DUE)
		case KindHET:
			round = FormatHET(p.HET)
		}
		q, err := ParseLine(round)
		if err != nil {
			t.Errorf("re-parse of formatted record failed: %v\n in: %q\nout: %q", err, line, round)
		} else if q.Kind != p.Kind {
			t.Errorf("kind changed on round trip: %v -> %v", p.Kind, q.Kind)
		}
	})
}

// FuzzBlockScan lifts the differential contract from lines to whole
// scans: over arbitrary multi-line input — including blank lines, CRLF,
// missing final newlines and binary noise — the BlockScanner must produce
// the serial Scanner's exact records, stats, error and offset at every
// worker count, with a block size small enough that lines routinely
// straddle block boundaries.
func FuzzBlockScan(f *testing.F) {
	ce := FormatCE(sampleCE())
	due := FormatDUE(sampleDUE())
	hetLine := FormatHET(sampleHET())
	f.Add(ce+"\n"+due+"\n"+hetLine+"\n", 2, 32)
	f.Add(ce+"\r\n"+ce+"\r\n", 4, 16)
	f.Add(strings.Repeat(ce+"\n", 20)+ce[:30], 8, 64)
	f.Add(ce[:len(ce)/2]+"\n"+ce[len(ce)/2:]+"\n\n\x00\xff\n", 3, 7)
	f.Add("", 2, 1)

	f.Fuzz(func(t *testing.T, in string, workers, bsize int) {
		workers = 2 + abs(workers)%7 // 2..8: always the pipeline path
		bsize = 1 + abs(bsize)%512
		for _, cfg := range []ScanConfig{
			{},
			{Strict: true},
			{DedupWindow: 3, ReorderWindow: 15 * time.Second},
		} {
			want := drainScanner(NewScannerConfig(strings.NewReader(in), cfg))
			got := drainScanner(NewBlockScanner(bytes.NewReader([]byte(in)), BlockScanConfig{
				ScanConfig: cfg, Workers: workers, BlockSize: bsize,
			}))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("block scan diverged (workers=%d bsize=%d cfg=%+v)\n got: %+v\nwant: %+v",
					workers, bsize, cfg, got, want)
			}
		}
	})
}

// extraFields renders n unknown key=value tokens x0=1 .. x<n-1>=1,
// followed by tail.
func extraFields(n int, tail string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " x%d=1", i)
	}
	return b.String() + tail
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
