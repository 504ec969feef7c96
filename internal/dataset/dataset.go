// Package dataset wires the substrates into the end-to-end pipeline the
// paper's data went through — fault model → memory controller → EDAC
// polling (with log-space loss) → syslog; machine checks → HET — and
// writes the §2.4 open-data release formats: syslog text, CE telemetry
// CSV, per-node sensor CSV and the inventory replacement log. Of these it
// reads back only the syslog text, plus the colfmt replay file
// (ReadRecords): the inputs of the ETL path (cmd/astraparse) and of
// astrareport -from-syslog. The CSVs are export-only.
package dataset

import (
	"context"
	"fmt"
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
// stages with ctx's error; a panic in any stage surfaces as a
// *parallel.PanicError instead of crashing the process.
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
// dropping what the limited log space loses.
func (ds *Dataset) runEdac(ctx context.Context) error {
	enc := mce.NewEncoder(ds.Config.Seed)
	// Logged <= offered, so the full event count is a safe upper bound
	// that spares every growth reallocation on the hot append below.
	ds.CERecords = make([]mce.CERecord, 0, len(ds.Pop.CEs))
	pollers := make([]*edac.Poller[mce.CERecord], ds.Config.Nodes)
	out := func(recs []mce.CERecord) {
		ds.CERecords = append(ds.CERecords, recs...)
	}
	for i, ev := range ds.Pop.CEs {
		if err := parallel.Poll(ctx, i); err != nil {
			return err
		}
		p := pollers[ev.Node]
		if p == nil {
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
	for _, p := range pollers {
		if p != nil {
			ds.EdacStats.Add(p.Close())
		}
	}
	sortCERecords(ds.CERecords)
	return nil
}

func (ds *Dataset) encodeDUEs(ctx context.Context) error {
	enc := mce.NewEncoder(ds.Config.Seed)
	ds.DUERecords = make([]mce.DUERecord, len(ds.Pop.DUEs))
	for i, ev := range ds.Pop.DUEs {
		if err := parallel.Poll(ctx, i); err != nil {
			return err
		}
		rec, err := enc.EncodeDUE(ev)
		if err != nil {
			return fmt.Errorf("dataset: DUE event %d: %w", i, err)
		}
		ds.DUERecords[i] = rec
	}
	return nil
}

func (ds *Dataset) buildHET(ctx context.Context) error {
	fromDUEs := make([]het.Record, len(ds.DUERecords))
	for i, rec := range ds.DUERecords {
		fromDUEs[i] = het.FromDUE(rec)
	}
	ambient, err := het.GenerateAmbient(ctx, ds.Config.Seed, simtime.HETStart, ds.Config.Fault.End, ds.Config.Nodes)
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
