package syslog

import (
	"context"
	"errors"
	"fmt"
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
		// Timestamps only the general grammar reads: fractional seconds,
		// an offset, and offsets that leave years 0000-9999 in UTC.
		"2019-05-20T13:04:55.250Z" + ce[20:],
		"2019-05-20T13:04:55.000000001+02:00" + due[20:],
		"0000-01-01T00:30:00+01:00" + ce[20:],
		"9999-12-31T23:30:00-01:00" + hetLine[20:],
		// Hosts off AppendString's form that a scanf-style reader maps
		// onto node astra-r03c11n2.
		withHost(ce, "astra-r03c11n2xyz"),
		withHost(due, "astra-r03c11n2,evil"),
		withHost(hetLine, "astra-r03c11n+2"),
		withHost(ce, "astra-r3c11n2"),
		withHost(due, "astra-r03c11n02"),
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

// FuzzScan pins the scanner's resume contract over arbitrary multi-line
// input — blank lines, CRLF, missing final newlines, binary noise,
// fractional-second timestamps — under three configurations: a
// checkpoint taken after any number of records, persisted through
// MarshalBinary and UnmarshalBinary as astrad persists it, and restored
// over the remaining bytes yields the rest of the uninterrupted scan: the
// same records, stats, error and final offset.
func FuzzScan(f *testing.F) {
	ce := FormatCE(sampleCE())
	due := FormatDUE(sampleDUE())
	hetLine := FormatHET(sampleHET())
	f.Add(ce+"\n"+due+"\n"+hetLine+"\n", 2)
	f.Add(ce+"\r\n"+ce+"\r\n", 1)
	f.Add(strings.Repeat(ce+"\n", 20)+ce[:30], 8)
	f.Add(ce[:len(ce)/2]+"\n"+ce[len(ce)/2:]+"\n\n\x00\xff\n", 3)
	f.Add("", 0)
	// Sub-second timestamps, as rsyslog's high-precision format writes
	// them, buffered across the checkpoint by the reorder window.
	at := func(line, ts string) string { return ts + line[20:] + "\n" }
	f.Add(at(ce, "2019-05-20T13:04:55.250Z")+at(ce, "2019-05-20T13:04:55.1Z")+
		at(due, "2019-05-20T13:04:59.700Z")+at(hetLine, "2019-05-20T13:05:01.000000001+00:00")+
		at(ce, "2019-05-20T13:06:00Z"), 1)
	f.Add(corruptLog(f, synthLog(300), 5, 0.05), 40)

	f.Fuzz(func(t *testing.T, in string, stop int) {
		for _, cfg := range []ScanConfig{
			{},
			{Strict: true},
			{DedupWindow: 3, ReorderWindow: 15 * time.Second},
		} {
			want := drainScanner(NewScannerConfig(strings.NewReader(in), cfg))
			n := int(uint(stop) % uint(len(want.Records)+1))
			sc := NewScannerConfig(strings.NewReader(in), cfg)
			for i := 0; i < n; i++ {
				sc.Scan()
			}
			data, err := sc.Checkpoint().MarshalBinary()
			if err != nil {
				t.Fatalf("cfg %+v: marshal after %d records: %v", cfg, n, err)
			}
			var cp Checkpoint
			if err := cp.UnmarshalBinary(data); err != nil {
				t.Fatalf("cfg %+v: unmarshal after %d records: %v\n%s", cfg, n, err, data)
			}
			rest := NewScannerConfig(strings.NewReader(in[cp.Offset:]), cfg)
			if err := rest.Restore(cp); err != nil {
				t.Fatal(err)
			}
			got := drainScanner(rest)
			if len(got.Records) != len(want.Records)-n {
				t.Fatalf("cfg %+v: resumed after %d records: %d records, want %d", cfg, n, len(got.Records), len(want.Records)-n)
			}
			for i, p := range got.Records {
				if !sameRecord(p, want.Records[n+i]) {
					t.Errorf("cfg %+v: resumed after %d records: record %d is %+v, want %+v", cfg, n, n+i, p, want.Records[n+i])
				}
			}
			if got.Stats != want.Stats || got.Err != want.Err || got.Offset != want.Offset {
				t.Errorf("cfg %+v: resumed after %d records: stats %+v, err %q, offset %d; want %+v, %q, %d",
					cfg, n, got.Stats, got.Err, got.Offset, want.Stats, want.Err, want.Offset)
			}
		}
	})
}

// sameRecord compares two parsed records by kind and that kind's record.
func sameRecord(a, b Parsed) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindCE:
		return a.CE == b.CE
	case KindDUE:
		return a.DUE == b.DUE
	case KindHET:
		return a.HET == b.HET
	}
	return true
}

// withHost replaces the host of a line rendered by AppendCE, AppendDUE
// or AppendHET.
func withHost(line, host string) string {
	return line[:21] + host + line[21+len("astra-rRRcCCnN"):]
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
