// Package dataset wires the substrates into the end-to-end pipeline the
// paper's data went through — fault model → memory controller → EDAC
// polling (with log-space loss) → syslog; machine checks → HET — and
// implements the §2.4 open-data release formats: syslog text, CE/DUE
// telemetry CSV, per-node sensor CSV, and inventory replacement logs, with
// matching readers so the ETL path (cmd/astraparse) works on the files the
// generator (cmd/astragen) writes.
package dataset

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/edac"
	"repro/internal/envmodel"
	"repro/internal/faultmodel"
	"repro/internal/het"
	"repro/internal/inventory"
	"repro/internal/mce"
	"repro/internal/parallel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Config assembles the pipeline configuration.
type Config struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Nodes bounds the system size (reduced-scale runs).
	Nodes int
	// Fault is the fault-population configuration; if zero-valued it is
	// replaced by faultmodel.DefaultConfig(Seed) at Nodes scale.
	Fault faultmodel.Config
	// Env is the telemetry calibration; zero value replaced by defaults.
	Env envmodel.Params
	// EdacCapacity is the per-node CE log capacity (§2.3).
	EdacCapacity int
	// PollMinutes is the EDAC polling interval in minutes.
	PollMinutes int64
	// Inventory enables replacement-history generation.
	Inventory bool
	// Parallelism bounds the worker pool the pipeline stages shard across:
	// 0 (the default) uses runtime.GOMAXPROCS(0), 1 restores the serial
	// code path. Output is bit-identical at every setting; see DESIGN.md §8.
	Parallelism int
}

// DefaultConfig returns the full-scale pipeline configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:         seed,
		Nodes:        topology.Nodes,
		Fault:        faultmodel.DefaultConfig(seed),
		Env:          envmodel.DefaultParams(),
		EdacCapacity: edac.DefaultCapacity,
		PollMinutes:  1,
		Inventory:    true,
	}
}

// Dataset is the built pipeline output: ground truth plus everything the
// platform would actually have recorded.
type Dataset struct {
	Config Config
	// Pop is the ground-truth population (not available to the analyses
	// on the real system; used for validation only).
	Pop *faultmodel.Population
	// CERecords are the correctable errors that survived the EDAC path,
	// time-ordered.
	CERecords []mce.CERecord
	// DUERecords are the uncorrectable machine-check records (never
	// subject to log-space loss).
	DUERecords []mce.DUERecord
	// HETRecords are the Hardware Event Tracker records (memory DUEs
	// plus ambient platform events), post firmware gate.
	HETRecords []het.Record
	// EdacStats accounts for CE logging loss.
	EdacStats edac.Stats
	// Env is the telemetry model (implements core.SensorSource).
	Env *envmodel.Model
	// Inventory is the replacement history (nil unless enabled).
	Inventory *inventory.History
}

// Build runs the pipeline. Cancelling ctx aborts between (and inside)
// stages with ctx's error; a worker panic in any parallel stage surfaces
// as a *parallel.PanicError instead of crashing the process.
func Build(ctx context.Context, cfg Config) (ds *Dataset, err error) {
	defer parallel.Recover(&err)
	if ds, err = newFleet(ctx, cfg); err != nil {
		return nil, err
	}
	if err := ds.runEdac(ctx); err != nil {
		return nil, err
	}
	if err := ds.encodeDUEs(ctx); err != nil {
		return nil, err
	}
	if err := ds.buildHET(ctx); err != nil {
		return nil, err
	}
	return ds, nil
}

// BuildFleet builds the study context Build does — the normalised Config,
// the ground-truth population, the telemetry model, the inventory and
// the EDAC loss accounting, all equal to Build's for the same cfg — and
// no record streams: CERecords, DUERecords and HETRecords stay nil. It
// serves analyses whose records come from elsewhere, such as a logged
// syslog, and skips the record encoding that would be thrown away.
// Errors and panics surface as in Build.
func BuildFleet(ctx context.Context, cfg Config) (ds *Dataset, err error) {
	defer parallel.Recover(&err)
	if ds, err = newFleet(ctx, cfg); err != nil {
		return nil, err
	}
	if err := ds.countEdacLoss(ctx); err != nil {
		return nil, err
	}
	return ds, nil
}

// newFleet is what Build and BuildFleet share: it normalises cfg, then
// generates the fault population, the telemetry model and (if enabled)
// the inventory.
func newFleet(ctx context.Context, cfg Config) (*Dataset, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("dataset: Nodes = %d", cfg.Nodes)
	}
	if cfg.Fault.Nodes == 0 {
		cfg.Fault = faultmodel.DefaultConfig(cfg.Seed)
	}
	cfg.Fault.Nodes = cfg.Nodes
	if cfg.Fault.Parallelism == 0 {
		cfg.Fault.Parallelism = cfg.Parallelism
	}
	if cfg.Env == (envmodel.Params{}) {
		cfg.Env = envmodel.DefaultParams()
	}
	if cfg.EdacCapacity <= 0 {
		cfg.EdacCapacity = edac.DefaultCapacity
	}
	if cfg.PollMinutes <= 0 {
		cfg.PollMinutes = 1
	}

	pop, err := faultmodel.Generate(ctx, cfg.Fault)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Config: cfg, Pop: pop, Env: envmodel.New(cfg.Seed, cfg.Env)}
	if cfg.Inventory {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hist, err := inventory.Generate(cfg.Seed, cfg.Nodes, inventory.DefaultProcesses())
		if err != nil {
			return nil, err
		}
		ds.Inventory = hist
	}
	return ds, nil
}

// countEdacLoss fills EdacStats without encoding a record: each node's
// event minutes go through the same per-node pollers runEdac uses, with
// an empty payload and a flush that keeps nothing. A poller's counts
// depend only on its node's minute sequence, so the totals equal runEdac's.
func (ds *Dataset) countEdacLoss(ctx context.Context) error {
	pollers := make([]*edac.Poller[struct{}], ds.Config.Nodes)
	discard := func([]struct{}) {}
	for i, ev := range ds.Pop.CEs {
		if err := parallel.Poll(ctx, i); err != nil {
			return err
		}
		p := pollers[ev.Node]
		if p == nil {
			p = edac.NewPoller[struct{}](ds.Config.EdacCapacity, ds.Config.PollMinutes, discard)
			pollers[ev.Node] = p
		}
		p.Offer(int64(ev.Minute), struct{}{})
	}
	for _, p := range pollers {
		if p != nil {
			ds.EdacStats.Add(p.Close())
		}
	}
	return nil
}

// runEdac pushes the generated CE stream through per-node pollers,
// dropping what the limited log space loses. Pollers are independent per
// node, so with Parallelism > 1 each node's stream runs on a worker pool;
// the flushed batches are stitched back in the order the serial scan would
// have produced them (each batch is tagged with the global index of the
// event whose Offer triggered the flush — unique per node — and Close
// drains sort after every Offer, tie-broken by node), so the record stream
// handed to sortCERecords is bit-identical to the serial path.
func (ds *Dataset) runEdac(ctx context.Context) error {
	enc := mce.NewEncoder(ds.Config.Seed)
	if parallel.Workers(ds.Config.Parallelism) <= 1 {
		// Logged <= offered, so the full event count is a safe upper bound
		// that spares every growth reallocation on the hot append below.
		ds.CERecords = make([]mce.CERecord, 0, len(ds.Pop.CEs))
		pollers := map[topology.NodeID]*edac.Poller[mce.CERecord]{}
		out := func(recs []mce.CERecord) {
			ds.CERecords = append(ds.CERecords, recs...)
		}
		for i, ev := range ds.Pop.CEs {
			if err := parallel.Poll(ctx, i); err != nil {
				return err
			}
			p, ok := pollers[ev.Node]
			if !ok {
				p = edac.NewPoller[mce.CERecord](ds.Config.EdacCapacity, ds.Config.PollMinutes, out)
				pollers[ev.Node] = p
			}
			rec, err := enc.EncodeCE(ev, i)
			if err != nil {
				return fmt.Errorf("dataset: CE event %d: %w", i, err)
			}
			p.Offer(int64(ev.Minute), rec)
		}
		// Close in node order so the final drains land deterministically.
		for n := 0; n < ds.Config.Nodes; n++ {
			p, ok := pollers[topology.NodeID(n)]
			if !ok {
				continue
			}
			ds.EdacStats.Add(p.Close())
		}
		sortCERecords(ds.CERecords)
		return nil
	}

	// Partition the global event stream by node, keeping each event's
	// global index (EncodeCE takes it, and it doubles as the batch tag).
	// Counting first sizes every per-node slice exactly — one backing
	// array for the whole partition instead of per-node growth chains.
	counts := make([]int32, ds.Config.Nodes)
	for _, ev := range ds.Pop.CEs {
		counts[ev.Node]++
	}
	backing := make([]int32, len(ds.Pop.CEs))
	perNode := make([][]int32, ds.Config.Nodes)
	next := 0
	for n := range perNode {
		perNode[n] = backing[next : next : next+int(counts[n])]
		next += int(counts[n])
	}
	for i, ev := range ds.Pop.CEs {
		perNode[ev.Node] = append(perNode[ev.Node], int32(i))
	}

	type nodeResult struct {
		recs  []mce.CERecord // drained records, in emission order
		keys  []int64        // per batch: global index of the triggering event
		ends  []int          // per batch: end offset into recs
		stats edac.Stats
	}
	results := make([]nodeResult, ds.Config.Nodes)
	err := parallel.ForEachChunkCtx(ctx, ds.Config.Parallelism, ds.Config.Nodes, func(ctx context.Context, _, lo, hi int) error {
		for n := lo; n < hi; n++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			events := perNode[n]
			if len(events) == 0 {
				continue
			}
			res := &results[n]
			res.recs = make([]mce.CERecord, 0, len(events))
			var trigger int64
			out := func(recs []mce.CERecord) {
				res.recs = append(res.recs, recs...)
				res.keys = append(res.keys, trigger)
				res.ends = append(res.ends, len(res.recs))
			}
			p := edac.NewPoller[mce.CERecord](ds.Config.EdacCapacity, ds.Config.PollMinutes, out)
			for _, gi := range events {
				ev := ds.Pop.CEs[gi]
				trigger = int64(gi)
				rec, err := enc.EncodeCE(ev, int(gi))
				if err != nil {
					return fmt.Errorf("dataset: CE event %d: %w", gi, err)
				}
				p.Offer(int64(ev.Minute), rec)
			}
			trigger = math.MaxInt64
			res.stats = p.Close()
		}
		return nil
	})
	if err != nil {
		return err
	}

	type batch struct {
		key  int64
		node int
		recs []mce.CERecord
	}
	var batches []batch
	total := 0
	for n := range results {
		res := &results[n]
		start := 0
		for b, end := range res.ends {
			batches = append(batches, batch{res.keys[b], n, res.recs[start:end]})
			start = end
		}
		total += len(res.recs)
		ds.EdacStats.Add(res.stats)
	}
	// Global indexes are unique and belong to exactly one node, so sorting
	// by key replays the serial Offer interleaving; the MaxInt64 Close
	// drains tie-break by node, matching the serial node-order Close loop.
	sort.Slice(batches, func(a, b int) bool {
		if batches[a].key != batches[b].key {
			return batches[a].key < batches[b].key
		}
		return batches[a].node < batches[b].node
	})
	ds.CERecords = make([]mce.CERecord, 0, total)
	for _, b := range batches {
		ds.CERecords = append(ds.CERecords, b.recs...)
	}
	sortCERecords(ds.CERecords)
	return nil
}

func (ds *Dataset) encodeDUEs(ctx context.Context) error {
	enc := mce.NewEncoder(ds.Config.Seed)
	ds.DUERecords = make([]mce.DUERecord, len(ds.Pop.DUEs))
	return parallel.ForEachChunkCtx(ctx, ds.Config.Parallelism, len(ds.Pop.DUEs), func(ctx context.Context, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := parallel.Poll(ctx, i-lo); err != nil {
				return err
			}
			rec, err := enc.EncodeDUE(ds.Pop.DUEs[i])
			if err != nil {
				return fmt.Errorf("dataset: DUE event %d: %w", i, err)
			}
			ds.DUERecords[i] = rec
		}
		return nil
	})
}

func (ds *Dataset) buildHET(ctx context.Context) error {
	fromDUEs := make([]het.Record, len(ds.DUERecords))
	err := parallel.ForEachChunkCtx(ctx, ds.Config.Parallelism, len(ds.DUERecords), func(ctx context.Context, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := parallel.Poll(ctx, i-lo); err != nil {
				return err
			}
			fromDUEs[i] = het.FromDUE(ds.DUERecords[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	ambient, err := het.GenerateAmbientWorkers(ctx, ds.Config.Seed, simtime.HETStart, ds.Config.Fault.End, ds.Config.Nodes, ds.Config.Parallelism)
	if err != nil {
		return err
	}
	ds.HETRecords = het.Merge(fromDUEs, ambient)
	return nil
}

// Verify runs the release self-check over the built dataset: every CE
// record internally consistent, streams time-ordered and inside the study
// window, HET records post-gate, and the EDAC accounting balanced. A
// failure indicates a pipeline bug, so astragen refuses to publish on it.
func (ds *Dataset) Verify() error {
	var prev mce.CERecord
	for i, r := range ds.CERecords {
		if err := mce.ValidateRecord(r); err != nil {
			return fmt.Errorf("dataset: CE record %d: %w", i, err)
		}
		if i > 0 && r.Time.Before(prev.Time) {
			return fmt.Errorf("dataset: CE records out of order at %d", i)
		}
		if r.Time.Before(ds.Config.Fault.Start) || r.Time.After(ds.Config.Fault.End.Add(24*time.Hour)) {
			return fmt.Errorf("dataset: CE record %d outside the study window: %v", i, r.Time)
		}
		prev = r
	}
	for i, h := range ds.HETRecords {
		if !h.Recorded() {
			return fmt.Errorf("dataset: HET record %d precedes the firmware gate", i)
		}
	}
	if ds.EdacStats.Logged+ds.EdacStats.Dropped != ds.EdacStats.Offered {
		return fmt.Errorf("dataset: EDAC accounting unbalanced: %+v", ds.EdacStats)
	}
	if ds.EdacStats.Logged != uint64(len(ds.CERecords)) {
		return fmt.Errorf("dataset: %d records vs %d logged", len(ds.CERecords), ds.EdacStats.Logged)
	}
	if len(ds.DUERecords) != len(ds.Pop.DUEs) {
		return fmt.Errorf("dataset: DUE records lost: %d of %d", len(ds.DUERecords), len(ds.Pop.DUEs))
	}
	return nil
}

func sortCERecords(recs []mce.CERecord) {
	// The EDAC drain interleaves nodes; restore global time order with a
	// deterministic tiebreak.
	sort.Slice(recs, func(a, b int) bool {
		if !recs[a].Time.Equal(recs[b].Time) {
			return recs[a].Time.Before(recs[b].Time)
		}
		if recs[a].Node != recs[b].Node {
			return recs[a].Node < recs[b].Node
		}
		return recs[a].Addr < recs[b].Addr
	})
}
