package syslog

// Checkpoint serialization: a deterministic, line-oriented rendering of a
// scanner snapshot so a daemon can persist it atomically and resume after
// a restart. The format leans on the wire codec for the buffered records —
// pending and ready entries are rendered as canonical syslog lines via
// AppendCE/AppendDUE/AppendHET and re-parsed on load, so the round trip is
// exact by the codec's own round-trip guarantee rather than by a second
// serialization of every record field. Determinism matters: the same
// checkpoint always marshals to the same bytes, so Restore followed by
// Checkpoint re-marshals byte-identically and a daemon can skip rewriting
// an unchanged state file.

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"time"
)

// checkpointMagic heads every serialized checkpoint; the trailing version
// is bumped on any format change.
const checkpointMagic = "astra-scan-checkpoint v1"

// zeroTimeToken stands in for the zero time.Time in cursor fields.
const zeroTimeToken = "-"

// Buffered returns how many records the checkpoint holds in flight — the
// reorder heap plus the ready-to-emit queue. They were consumed from the
// input but not yet delivered, so a restart answers for them from the
// checkpoint, not the log.
func (cp Checkpoint) Buffered() int {
	return len(cp.pending) + len(cp.ready)
}

// MarshalBinary renders the checkpoint deterministically. Buffered records
// are written as canonical syslog lines (pending in heap-array order,
// which a load preserves, keeping the heap invariant); dedup-ring lines
// are base64 so the format stays line-oriented whatever bytes they hold.
func (cp Checkpoint) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(checkpointMagic)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "offset %d\n", cp.Offset)
	s := cp.Stats
	fmt.Fprintf(&b, "stats %d %d %d %d %d %d %d %d %d %d %d\n",
		s.Lines, s.CEs, s.DUEs, s.HETs, s.Other,
		s.Malformed, s.Truncated, s.Garbage,
		s.Duplicated, s.Reordered, s.DroppedOutOfOrder)
	fmt.Fprintf(&b, "rpos %d\n", cp.rpos)
	fmt.Fprintf(&b, "maxseen %s\n", marshalTime(cp.maxSeen))
	fmt.Fprintf(&b, "watermark %s\n", marshalTime(cp.watermark))

	fmt.Fprintf(&b, "recent %d\n", len(cp.recent))
	for _, line := range cp.recent {
		b.WriteString(base64.StdEncoding.EncodeToString(line))
		b.WriteByte('\n')
	}
	for _, sec := range []struct {
		name string
		recs []Parsed
	}{{"pending", cp.pending}, {"ready", cp.ready}} {
		fmt.Fprintf(&b, "%s %d\n", sec.name, len(sec.recs))
		var buf []byte
		for _, p := range sec.recs {
			var err error
			if buf, err = appendParsed(buf[:0], p); err != nil {
				return nil, fmt.Errorf("syslog: checkpoint %s: %w", sec.name, err)
			}
			b.Write(buf)
			b.WriteByte('\n')
		}
	}
	return b.Bytes(), nil
}

// UnmarshalBinary loads a checkpoint previously produced by MarshalBinary,
// replacing the receiver entirely.
func (cp *Checkpoint) UnmarshalBinary(data []byte) error {
	r := &cpReader{rest: data}
	if line, err := r.line(); err != nil || string(line) != checkpointMagic {
		return fmt.Errorf("syslog: checkpoint: bad header %q", line)
	}
	*cp = Checkpoint{}
	var err error
	if cp.Offset, err = r.intField("offset"); err != nil {
		return err
	}
	if cp.Offset < 0 {
		return fmt.Errorf("syslog: checkpoint: negative offset %d", cp.Offset)
	}
	stats, err := r.fields("stats", 11)
	if err != nil {
		return err
	}
	for i, dst := range []*int{
		&cp.Stats.Lines, &cp.Stats.CEs, &cp.Stats.DUEs, &cp.Stats.HETs,
		&cp.Stats.Other, &cp.Stats.Malformed, &cp.Stats.Truncated,
		&cp.Stats.Garbage, &cp.Stats.Duplicated, &cp.Stats.Reordered,
		&cp.Stats.DroppedOutOfOrder,
	} {
		if *dst, err = strconv.Atoi(stats[i]); err != nil {
			return fmt.Errorf("syslog: checkpoint: stats[%d]: %w", i, err)
		}
	}
	rpos, err := r.intField("rpos")
	if err != nil {
		return err
	}
	cp.rpos = int(rpos)
	if cp.maxSeen, err = r.timeField("maxseen"); err != nil {
		return err
	}
	if cp.watermark, err = r.timeField("watermark"); err != nil {
		return err
	}

	n, err := r.intField("recent")
	if err != nil {
		return err
	}
	for i := int64(0); i < n; i++ {
		line, err := r.line()
		if err != nil {
			return fmt.Errorf("syslog: checkpoint: recent[%d]: %w", i, err)
		}
		raw, err := base64.StdEncoding.DecodeString(string(line))
		if err != nil {
			return fmt.Errorf("syslog: checkpoint: recent[%d]: %w", i, err)
		}
		cp.recent = append(cp.recent, raw)
	}
	// rpos is the ring's next overwrite position: an index into a full
	// ring, 0 otherwise. Out of range, the next record line would index
	// past the ring.
	if cp.rpos != 0 && (cp.rpos < 0 || cp.rpos >= len(cp.recent)) {
		return fmt.Errorf("syslog: checkpoint: rpos %d outside a %d-line dedup ring", cp.rpos, len(cp.recent))
	}
	var dec Decoder
	for _, sec := range []struct {
		name string
		dst  *[]Parsed
	}{{"pending", &cp.pending}, {"ready", &cp.ready}} {
		n, err := r.intField(sec.name)
		if err != nil {
			return err
		}
		for i := int64(0); i < n; i++ {
			line, err := r.line()
			if err != nil {
				return fmt.Errorf("syslog: checkpoint: %s[%d]: %w", sec.name, i, err)
			}
			p, err := dec.ParseLineBytes(line)
			if err != nil || p.Kind == KindOther {
				return fmt.Errorf("syslog: checkpoint: %s[%d]: bad record line %q: %v", sec.name, i, line, err)
			}
			*sec.dst = append(*sec.dst, p)
		}
	}
	if len(r.rest) != 0 {
		return fmt.Errorf("syslog: checkpoint: %d trailing bytes", len(r.rest))
	}
	return nil
}

// appendParsed renders a buffered record back into its wire line.
func appendParsed(dst []byte, p Parsed) ([]byte, error) {
	switch p.Kind {
	case KindCE:
		return AppendCE(dst, p.CE), nil
	case KindDUE:
		return AppendDUE(dst, p.DUE), nil
	case KindHET:
		return AppendHET(dst, p.HET), nil
	default:
		return dst, fmt.Errorf("unrenderable record kind %d", p.Kind)
	}
}

func marshalTime(t time.Time) string {
	if t.IsZero() {
		return zeroTimeToken
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func unmarshalTime(s string) (time.Time, error) {
	if s == zeroTimeToken {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339Nano, s)
}

// cpReader walks the line-oriented checkpoint format.
type cpReader struct {
	rest []byte
}

func (r *cpReader) line() ([]byte, error) {
	if len(r.rest) == 0 {
		return nil, errors.New("unexpected end of checkpoint")
	}
	i := bytes.IndexByte(r.rest, '\n')
	if i < 0 {
		return nil, errors.New("unterminated checkpoint line")
	}
	line := r.rest[:i]
	r.rest = r.rest[i+1:]
	return line, nil
}

// fields reads a "key v1 v2 ..." line, checking the key and arity.
func (r *cpReader) fields(key string, n int) ([]string, error) {
	line, err := r.line()
	if err != nil {
		return nil, fmt.Errorf("syslog: checkpoint: %s: %w", key, err)
	}
	parts := bytes.Fields(line)
	if len(parts) != n+1 || string(parts[0]) != key {
		return nil, fmt.Errorf("syslog: checkpoint: want %q with %d fields, got %q", key, n, line)
	}
	out := make([]string, n)
	for i, p := range parts[1:] {
		out[i] = string(p)
	}
	return out, nil
}

func (r *cpReader) intField(key string) (int64, error) {
	f, err := r.fields(key, 1)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("syslog: checkpoint: %s: %w", key, err)
	}
	return v, nil
}

func (r *cpReader) timeField(key string) (time.Time, error) {
	f, err := r.fields(key, 1)
	if err != nil {
		return time.Time{}, err
	}
	t, err := unmarshalTime(f[0])
	if err != nil {
		return time.Time{}, fmt.Errorf("syslog: checkpoint: %s: %w", key, err)
	}
	return t, nil
}
