// Package corrupt is a deterministic, seeded telemetry-corruption
// subsystem: it mutates generated syslog and CSV streams with the fault
// classes production log pipelines actually exhibit — line truncation,
// syslog relay duplication, bounded reordering, per-node clock skew,
// garbage interleaving, log-rotation splits, and dropped runs (which, on
// the sensor CSV layout, are dropped per-node sensor windows).
//
// The paper's pipeline ran over ~8 GiB of production telemetry that had
// all of these defects; the reproduction's ingest path is tested against
// this corruptor so that "graceful degradation" is a measured property
// (see the differential harness in this package's tests) rather than a
// claim. Everything here is reproducible: the same Config and input bytes
// always yield the same output bytes.
package corrupt

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/simrand"
)

// Defaults for the bounded fault shapes.
const (
	// DefaultReorderDepth is the maximum number of positions a reordered
	// line is displaced.
	DefaultReorderDepth = 4
	// DefaultMaxSkewSeconds bounds the per-node clock offset magnitude.
	DefaultMaxSkewSeconds = 120
	// DefaultDropRunLen is the length of a dropped run of lines. On the
	// sensor CSV layout (node-major, minute-minor) a run of consecutive
	// rows is a contiguous window of one node's samples, so dropped runs
	// model dropped sensor windows.
	DefaultDropRunLen = 8
)

// Config sets the per-line probability of each fault class. All rates are
// in [0, 1] and independent; zero disables a class.
type Config struct {
	// Seed drives every random decision.
	Seed uint64
	// Truncate cuts a line at a random interior byte, losing the tail
	// (partial write at the end of a rotated file, relay MTU cut, ...).
	Truncate float64
	// Duplicate re-emits a line immediately (at-least-once relay
	// delivery).
	Duplicate float64
	// Reorder holds a line back by 1..ReorderDepth positions (multi-path
	// relay races).
	Reorder float64
	// ReorderDepth bounds the displacement; 0 means DefaultReorderDepth.
	ReorderDepth int
	// ClockSkew is the fraction of nodes whose clock is offset by a
	// stable per-node amount; lines from a skewed node have their leading
	// RFC 3339 timestamp shifted.
	ClockSkew float64
	// MaxSkewSeconds bounds the per-node offset magnitude; 0 means
	// DefaultMaxSkewSeconds.
	MaxSkewSeconds int
	// Garbage inserts a junk line (binary noise, torn records, marker-
	// bearing nonsense) before the current line.
	Garbage float64
	// RotationSplit tears a line in two at a random byte (log rotation
	// cutting mid-record); both halves are emitted as separate lines.
	RotationSplit float64
	// DropRun starts a dropped run of DropRunLen consecutive lines
	// (rotation losing a chunk; a sensor window going dark).
	DropRun float64
	// DropRunLen is the dropped-run length; 0 means DefaultDropRunLen.
	DropRunLen int
}

// Uniform returns a Config with every single-line fault class at rate p
// and the dropped-run start rate scaled so that the expected fraction of
// lines lost to drops is also p. It is the "combined corruption rate p"
// used by the differential robustness harness.
func Uniform(seed uint64, p float64) Config {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return Config{
		Seed:          seed,
		Truncate:      p,
		Duplicate:     p,
		Reorder:       p,
		ClockSkew:     p,
		Garbage:       p,
		RotationSplit: p,
		DropRun:       p / DefaultDropRunLen,
	}
}

// Report accounts for every mutation applied in one Process run.
type Report struct {
	// LinesIn and LinesOut count input and output lines.
	LinesIn, LinesOut int
	// Truncated lines lost their tail.
	Truncated int
	// Duplicated lines were emitted twice.
	Duplicated int
	// Reordered lines were displaced from their input position.
	Reordered int
	// Skewed lines had their timestamp shifted by a per-node offset.
	Skewed int
	// GarbageInserted junk lines were interleaved.
	GarbageInserted int
	// RotationSplits lines were torn into two lines.
	RotationSplits int
	// DroppedLines were removed entirely.
	DroppedLines int
}

// Mutations returns the total number of mutations applied.
func (r Report) Mutations() int {
	return r.Truncated + r.Duplicated + r.Reordered + r.Skewed +
		r.GarbageInserted + r.RotationSplits + r.DroppedLines
}

// String renders the report as a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("corrupt: %d lines in, %d out: %d truncated, %d duplicated, %d reordered, %d skewed, %d garbage, %d rotation splits, %d dropped",
		r.LinesIn, r.LinesOut, r.Truncated, r.Duplicated, r.Reordered,
		r.Skewed, r.GarbageInserted, r.RotationSplits, r.DroppedLines)
}

// Corruptor applies a Config to line streams. It is stateless between
// Process calls (each call re-derives its random streams), so one
// Corruptor may corrupt several files with independent but reproducible
// decisions.
type Corruptor struct {
	cfg Config
}

// New returns a Corruptor for the given configuration.
func New(cfg Config) *Corruptor {
	if cfg.ReorderDepth <= 0 {
		cfg.ReorderDepth = DefaultReorderDepth
	}
	if cfg.MaxSkewSeconds <= 0 {
		cfg.MaxSkewSeconds = DefaultMaxSkewSeconds
	}
	if cfg.DropRunLen <= 0 {
		cfg.DropRunLen = DefaultDropRunLen
	}
	return &Corruptor{cfg: cfg}
}

// heldLine is a line held back by the reorder fault.
type heldLine struct {
	line  string
	delay int
}

// processor is the per-run mutable state.
type processor struct {
	cfg      Config
	rng      *simrand.Stream
	w        *bufio.Writer
	rep      Report
	held     []heldLine
	dropLeft int
	err      error
}

// Process reads r line by line, applies the configured faults, and writes
// the corrupted stream to w. The output is fully determined by the
// configuration and the input bytes.
func (c *Corruptor) Process(r io.Reader, w io.Writer) (Report, error) {
	return c.process(r, w, false)
}

// ProcessCSV is Process for CSV files: the first line (the header) passes
// through unmodified, so a reader can still check the schema, while every
// data row is subject to the configured faults.
func (c *Corruptor) ProcessCSV(r io.Reader, w io.Writer) (Report, error) {
	return c.process(r, w, true)
}

func (c *Corruptor) process(r io.Reader, w io.Writer, keepHeader bool) (Report, error) {
	p := &processor{
		cfg: c.cfg,
		rng: simrand.NewStream(c.cfg.Seed).Derive("corrupt"),
		w:   bufio.NewWriterSize(w, 1<<20),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Text()
		p.rep.LinesIn++
		if first && keepHeader {
			first = false
			p.emit(line)
			continue
		}
		first = false
		p.line(line)
	}
	if err := sc.Err(); err != nil {
		return p.rep, fmt.Errorf("corrupt: read: %w", err)
	}
	p.flush()
	if p.err != nil {
		return p.rep, fmt.Errorf("corrupt: write: %w", p.err)
	}
	if err := p.w.Flush(); err != nil {
		return p.rep, fmt.Errorf("corrupt: write: %w", err)
	}
	return p.rep, nil
}

// line pushes one input line through the fault pipeline.
func (p *processor) line(line string) {
	// Dropped runs remove lines wholesale before anything else sees them.
	if p.dropLeft > 0 {
		p.dropLeft--
		p.rep.DroppedLines++
		return
	}
	if p.cfg.DropRun > 0 && p.rng.Bool(p.cfg.DropRun) {
		p.dropLeft = p.cfg.DropRunLen - 1
		p.rep.DroppedLines++
		return
	}
	// Per-node clock skew rewrites the timestamp in place.
	if p.cfg.ClockSkew > 0 {
		if skewed, ok := p.skew(line); ok {
			line = skewed
			p.rep.Skewed++
		}
	}
	// Garbage interleaving inserts junk before the line.
	if p.cfg.Garbage > 0 && p.rng.Bool(p.cfg.Garbage) {
		p.emit(p.garbageLine())
		p.rep.GarbageInserted++
	}
	// Rotation split tears the line in two; truncation loses the tail.
	// A line suffers at most one of the two (both model cuts).
	switch {
	case p.cfg.RotationSplit > 0 && p.rng.Bool(p.cfg.RotationSplit) && len(line) > 2:
		cut := 1 + p.rng.IntN(len(line)-1)
		p.rep.RotationSplits++
		p.deliver(line[:cut])
		p.deliver(line[cut:])
		return
	case p.cfg.Truncate > 0 && p.rng.Bool(p.cfg.Truncate) && len(line) > 2:
		line = line[:1+p.rng.IntN(len(line)-1)]
		p.rep.Truncated++
	}
	p.deliver(line)
}

// deliver routes a (possibly mutated) line through duplication and
// reordering to the output.
func (p *processor) deliver(line string) {
	if p.cfg.Reorder > 0 && p.rng.Bool(p.cfg.Reorder) {
		p.held = append(p.held, heldLine{line: line, delay: 1 + p.rng.IntN(p.cfg.ReorderDepth)})
		p.rep.Reordered++
		return
	}
	p.emit(line)
	if p.cfg.Duplicate > 0 && p.rng.Bool(p.cfg.Duplicate) {
		p.emit(line)
		p.rep.Duplicated++
	}
}

// emit writes one output line and releases any held lines whose delay has
// elapsed.
func (p *processor) emit(line string) {
	p.write(line)
	if len(p.held) == 0 {
		return
	}
	kept := p.held[:0]
	var due []string
	for _, h := range p.held {
		h.delay--
		if h.delay <= 0 {
			due = append(due, h.line)
		} else {
			kept = append(kept, h)
		}
	}
	p.held = kept
	for _, l := range due {
		p.write(l)
	}
}

// flush drains held lines at end of stream.
func (p *processor) flush() {
	for _, h := range p.held {
		p.write(h.line)
	}
	p.held = nil
}

func (p *processor) write(line string) {
	if p.err != nil {
		return
	}
	if _, err := p.w.WriteString(line); err != nil {
		p.err = err
		return
	}
	if err := p.w.WriteByte('\n'); err != nil {
		p.err = err
		return
	}
	p.rep.LinesOut++
}

// skew shifts the leading RFC 3339 timestamp of a "<ts> <node> ..." line
// by the node's stable clock offset; it reports whether the line belongs
// to a skewed node and was rewritten.
func (p *processor) skew(line string) (string, bool) {
	ts, rest, ok := strings.Cut(line, " ")
	if !ok {
		return line, false
	}
	node, _, ok := strings.Cut(rest, " ")
	if !ok || node == "" {
		return line, false
	}
	t, err := time.Parse(time.RFC3339, ts)
	if err != nil {
		return line, false
	}
	nh := simrand.HashString(node)
	if simrand.HashUnit(p.cfg.Seed, nh, 0x5e1ec7) >= p.cfg.ClockSkew {
		return line, false
	}
	// Stable per-node offset in [-MaxSkewSeconds, +MaxSkewSeconds], never 0.
	span := 2 * p.cfg.MaxSkewSeconds
	off := int(simrand.Hash64(p.cfg.Seed, nh, 0x0ff5e7)%uint64(span)) - p.cfg.MaxSkewSeconds
	if off == 0 {
		off = p.cfg.MaxSkewSeconds
	}
	shifted := t.Add(time.Duration(off) * time.Second)
	return shifted.UTC().Format(time.RFC3339) + " " + rest, true
}

// garbageLine produces one junk line: binary-ish noise, torn half-records
// and marker-bearing nonsense, so parsers are exercised on the kinds of
// bytes real rotated syslogs contain.
func (p *processor) garbageLine() string {
	switch p.rng.IntN(5) {
	case 0: // binary-looking noise
		var sb strings.Builder
		n := 8 + p.rng.IntN(48)
		for i := 0; i < n; i++ {
			sb.WriteByte(byte(0x21 + p.rng.IntN(94)))
		}
		return sb.String()
	case 1: // marker-bearing nonsense: claims to be a CE record
		return fmt.Sprintf("%d kernel: EDAC tx2_mc: CE socket=%d garbage=%x",
			p.rng.Uint64(), p.rng.IntN(9), p.rng.Uint64())
	case 2: // corrupted timestamp head
		return fmt.Sprintf("20XX-%02d-99T99:99:99Z astra-r%02dcXXnX kernel: mce: [Hardware Error] DUE cause=?",
			1+p.rng.IntN(12), p.rng.IntN(40))
	case 3: // orphaned record tail (the head was lost to rotation)
		return fmt.Sprintf("ank=%d row=0x%04x col=0x%03x addr=0x%010x",
			p.rng.IntN(2), p.rng.IntN(1<<16), p.rng.IntN(1<<10), p.rng.Uint64()&0xffffffffff)
	default: // unrelated daemon chatter with odd bytes
		return fmt.Sprintf("<%d>liblogging-stdlog: -- MARK -- \x1b[%dm", p.rng.IntN(200), p.rng.IntN(50))
	}
}
