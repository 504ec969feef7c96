package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// scale sizes every workload. All of them are built from one generated
// fleet, GenSeed at Nodes nodes, and --seed relabels its nodes: a seeded
// permutation moves every record (CE, DUE, HET) to another node. So each
// seed is a different log, with different answers in every figure and
// endpoint, but the same amount and shape of work. The generator's
// volume is heavy-tailed, and fleets drawn from different generator
// seeds differ in cost by ±10% or more even within a narrow volume band,
// which would drown the changes the benchmark exists to see.
type scale struct {
	GenSeed uint64
	Nodes   int
	// RestartLines is the live-restart log length: the fleet's log
	// wrapped around about twice, so a cold catch-up takes about a second.
	RestartLines int
	// TailRate is the live-tail append rate in lines per second, in
	// chunks every TailChunk; TailWarmLines are appended and waited for
	// before the timed phase so /v1/nodes/{id} has nodes to ask about.
	// The phase starts TailLead after astrad's exec, which fixes where
	// its 10 s checkpoints fall in the phase.
	TailRate      int
	TailChunk     time.Duration
	TailWarmLines int
	TailLead      time.Duration
	// SetupReps is how many times set-up runs; setup_s is their median.
	SetupReps int
}

// benchScale is the scale the benchmark runs at. Generator seed 1007 is
// the first at or above 1000 whose 256-node fleet has 140-200 k CE
// events and 140-175 k logged CE records, which excludes the fleets
// dominated by one pathological node: 178,583 events, 154,569 records
// (13% lost to EDAC log overflow), a 24 MB syslog. TestBenchFleet checks
// it stays in that band.
var benchScale = scale{
	GenSeed:       1007,
	Nodes:         256,
	RestartLines:  300_000,
	TailRate:      25_000,
	TailChunk:     10 * time.Millisecond,
	TailWarmLines: 2_000,
	TailLead:      5 * time.Second,
	SetupReps:     5,
}

// buildFleet generates the fleet astrareport reconstructs for -seed
// genSeed -nodes nodes (the same dataset.Build call astra.Run makes).
func buildFleet(ctx context.Context, genSeed uint64, nodes int) (*dataset.Dataset, error) {
	cfg := dataset.DefaultConfig(genSeed)
	cfg.Nodes = nodes
	return dataset.Build(ctx, cfg)
}

// seededFleet builds the scale's fleet and relabels its nodes for seed.
func seededFleet(ctx context.Context, sc scale, seed uint64) (*dataset.Dataset, error) {
	ds, err := buildFleet(ctx, sc.GenSeed, sc.Nodes)
	if err != nil {
		return nil, err
	}
	relabel(ds, seed)
	return ds, nil
}

// relabel moves every record of ds to node perm[node] for a permutation
// drawn from seed, and restores the CE order dataset.Build sorts into
// (time, then node, then address).
func relabel(ds *dataset.Dataset, seed uint64) {
	perm := rand.New(rand.NewPCG(seed, 0x72656c6162656c)).Perm(ds.Config.Nodes)
	for i := range ds.CERecords {
		ds.CERecords[i].Node = topology.NodeID(perm[ds.CERecords[i].Node])
	}
	for i := range ds.DUERecords {
		ds.DUERecords[i].Node = topology.NodeID(perm[ds.DUERecords[i].Node])
	}
	for i := range ds.HETRecords {
		ds.HETRecords[i].Node = topology.NodeID(perm[ds.HETRecords[i].Node])
	}
	recs := ds.CERecords
	sort.SliceStable(recs, func(a, b int) bool {
		if !recs[a].Time.Equal(recs[b].Time) {
			return recs[a].Time.Before(recs[b].Time)
		}
		if recs[a].Node != recs[b].Node {
			return recs[a].Node < recs[b].Node
		}
		return recs[a].Addr < recs[b].Addr
	})
}

// setupReps runs a workload's set-up SetupReps times: each repetition
// builds and relabels the fleet and hands it to prepare. setup_s is the
// median time from a repetition's start to prepare's return (cleanup is
// not timed); rn.buildS is the median build time.
func (rn *runner) setupReps(ctx context.Context, res *Result, prepare func(ds *dataset.Dataset) (cleanup func() error, err error)) error {
	var reps, builds []float64
	for rep := 0; rep < rn.sc.SetupReps; rep++ {
		rn.speed.burst()
		start := time.Now()
		ds, err := seededFleet(ctx, rn.sc, rn.seed)
		if err != nil {
			return err
		}
		builds = append(builds, time.Since(start).Seconds())
		cleanup, err := prepare(ds)
		if err != nil {
			return err
		}
		reps = append(reps, time.Since(start).Seconds())
		res.Fleet = Fleet{GenSeed: rn.sc.GenSeed, Nodes: rn.sc.Nodes, Relabel: rn.seed, CEEvents: len(ds.Pop.CEs), CERecords: len(ds.CERecords)}
		if cleanup != nil {
			if err := cleanup(); err != nil {
				return err
			}
		}
	}
	res.set("setup_s", median(reps), "s", len(reps))
	res.sample("setup_s", reps)
	rn.buildS = median(builds)
	return nil
}

// noiseEvery interleaves one line of kernel chatter per this many
// records, as astragen does by default.
const noiseEvery = 200

// render appends the first `lines` lines of the fleet's syslog to out,
// every event time shifted by shift: CE, DUE and HET records merged by
// event time (ties in that order, as dataset.WriteSyslog), one
// kernel-noise line per noiseEvery records. A fleet with fewer lines
// wraps around with its event times shifted by the fleet's span, as
// astraload does, so time stays monotonic. It returns the last event
// time written.
func render(out []byte, ds *dataset.Dataset, lines int, shift time.Duration) ([]byte, time.Time) {
	ces, dues, hets := ds.CERecords, ds.DUERecords, ds.HETRecords
	first, last := spanOf(ds)
	span := last.Sub(first) + time.Minute
	rng := rand.New(rand.NewPCG(ds.Config.Seed, 0x6e6f697365))
	var t time.Time
	ci, di, hi, n := 0, 0, 0, 0
	for written := 0; written < lines; {
		if ci == len(ces) && di == len(dues) && hi == len(hets) {
			if ci+di+hi == 0 {
				break
			}
			ci, di, hi = 0, 0, 0
			shift += span
		}
		switch next(ces, dues, hets, ci, di, hi) {
		case 0:
			r := ces[ci]
			r.Time = r.Time.Add(shift)
			out, t = syslog.AppendCE(out, r), r.Time
			ci++
		case 1:
			r := dues[di]
			r.Time = r.Time.Add(shift)
			out, t = syslog.AppendDUE(out, r), r.Time
			di++
		default:
			r := hets[hi]
			r.Time = r.Time.Add(shift)
			out, t = syslog.AppendHET(out, r), r.Time
			hi++
		}
		out = append(out, '\n')
		written++
		n++
		if n%noiseEvery == 0 && written < lines {
			out = syslog.AppendTimestamp(out, t)
			out = append(out, ' ')
			out = topology.NodeID(rng.IntN(ds.Config.Nodes)).AppendString(out)
			out = append(out, " kernel: slurmd["...)
			out = strconv.AppendInt(out, int64(1000+rng.IntN(9000)), 10)
			out = append(out, "]: job step completed\n"...)
			written++
		}
	}
	return out, t
}

// next picks the stream holding the earliest pending record.
func next(ces []mce.CERecord, dues []mce.DUERecord, hets []het.Record, ci, di, hi int) int {
	far := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	tc, td, th := far, far, far
	if ci < len(ces) {
		tc = ces[ci].Time
	}
	if di < len(dues) {
		td = dues[di].Time
	}
	if hi < len(hets) {
		th = hets[hi].Time
	}
	switch {
	case !tc.After(td) && !tc.After(th):
		return 0
	case !td.After(th):
		return 1
	default:
		return 2
	}
}

// spanOf bounds the fleet's event times across all three streams.
func spanOf(ds *dataset.Dataset) (first, last time.Time) {
	see := func(t time.Time) {
		if first.IsZero() || t.Before(first) {
			first = t
		}
		if t.After(last) {
			last = t
		}
	}
	if n := len(ds.CERecords); n > 0 {
		see(ds.CERecords[0].Time)
		see(ds.CERecords[n-1].Time)
	}
	if n := len(ds.DUERecords); n > 0 {
		see(ds.DUERecords[0].Time)
		see(ds.DUERecords[n-1].Time)
	}
	if n := len(ds.HETRecords); n > 0 {
		see(ds.HETRecords[0].Time)
		see(ds.HETRecords[n-1].Time)
	}
	return first, last
}

// lineEnds returns the byte offset just past every k-th line of text
// (and past its last line), the append boundaries of live-tail chunks.
func lineEnds(text []byte, k int) []int {
	var ends []int
	n := 0
	for i, b := range text {
		if b == '\n' {
			n++
			if n%k == 0 {
				ends = append(ends, i+1)
			}
		}
	}
	if len(ends) == 0 || ends[len(ends)-1] != len(text) {
		ends = append(ends, len(text))
	}
	return ends
}

// scanConfig is astrad's default scanner tolerance.
var scanConfig = syslog.ScanConfig{DedupWindow: 64, ReorderWindow: 5 * time.Minute}

// errTailEnd ends the reference scan the way a live tail ends: as a read
// error, not EOF, so records still held in the reorder window are not
// flushed.
var errTailEnd = errors.New("end of tailed input")

type tailEnd struct{}

func (tailEnd) Read([]byte) (int, error) { return 0, errTailEnd }

// release is what astrad's scanner releases from a log: the CE records
// in release order and, for each, the input offset whose consumption
// released it.
type release struct {
	recs  []mce.CERecord
	at    []int64
	stats syslog.ScanStats
}

// scanReference runs the scanner astrad runs over text, without an
// end-of-input flush.
func scanReference(text []byte) (*release, error) {
	sc := syslog.NewScannerConfig(io.MultiReader(bytes.NewReader(text), tailEnd{}), scanConfig)
	rel := &release{}
	for sc.Scan() {
		if p := sc.Record(); p.Kind == syslog.KindCE {
			rel.recs = append(rel.recs, p.CE)
			rel.at = append(rel.at, sc.Offset())
		}
	}
	if err := sc.Err(); !errors.Is(err, errTailEnd) {
		return nil, fmt.Errorf("reference scan: %v", err)
	}
	rel.stats = sc.Stats()
	return rel, nil
}

// releasedBy is how many records the scanner has released once it has
// consumed the first `offset` bytes.
func (r *release) releasedBy(offset int64) int {
	return sort.Search(len(r.at), func(i int) bool { return r.at[i] > offset })
}
