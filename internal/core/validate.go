package core

import (
	"fmt"

	"repro/internal/faultmodel"
	"repro/internal/mce"
	"repro/internal/topology"
)

// ValidationMetrics quantifies how faithfully the clusterer recovered the
// generated ground truth — the self-check that a synthetic-data
// reproduction owes its users. The real study had no ground truth; this
// harness does, so it reports it.
type ValidationMetrics struct {
	// ErrorsAttributed is the number of input records assigned to some
	// fault; it must equal the record count (every error explained once).
	ErrorsAttributed int
	// DoubleAttributed counts records assigned to more than one fault
	// (must be 0).
	DoubleAttributed int
	// BanksChecked is the number of unambiguous banks compared (exactly
	// one ground-truth fault and a classifiable footprint).
	BanksChecked int
	// ModeAgreement is the fraction of checked banks where the clusterer
	// recovered both the fault count (one) and the expected observable
	// mode.
	ModeAgreement float64
	// ModeRecall is the fraction of banks with one ground-truth fault and
	// any reported CE that cluster into one fault of the mode
	// TrueModeObservable gives the ground-truth fault: recall against
	// what a perfect observer without row information would report.
	ModeRecall float64
	// FaultCountRatio is recovered/expected fault counts over all banks;
	// splitting and merging pull it off 1.
	FaultCountRatio float64
}

// ValidateClustering compares clustered faults against the ground-truth
// population that produced the records. Records must be the encoded form
// of pop.CEs in the same order (ground truth joins on index).
func ValidateClustering(pop *faultmodel.Population, records []mce.CERecord, faults []Fault, cfg ClusterConfig) (ValidationMetrics, error) {
	if len(records) != len(pop.CEs) {
		return ValidationMetrics{}, fmt.Errorf("core: %d records for %d ground-truth events (streams must align)", len(records), len(pop.CEs))
	}
	var m ValidationMetrics

	seen := make(map[int]bool, len(records))
	for _, f := range faults {
		for _, idx := range f.Errors {
			if seen[idx] {
				m.DoubleAttributed++
				continue
			}
			seen[idx] = true
			m.ErrorsAttributed++
		}
	}

	type bankID struct {
		node topology.NodeID
		slot topology.Slot
		rank int
		bank int
	}
	gt := map[bankID][]int{}
	for _, f := range pop.Faults {
		k := bankID{f.Anchor.Node, f.Anchor.Slot, f.Anchor.Rank, f.Anchor.Bank}
		gt[k] = append(gt[k], f.ID)
	}
	words := map[int]map[topology.PhysAddr]bool{}
	bits := map[int]map[int]bool{}
	cols := map[int]map[int]bool{}
	for i, ev := range pop.CEs {
		id := int(ev.FaultID)
		if words[id] == nil {
			words[id] = map[topology.PhysAddr]bool{}
			bits[id] = map[int]bool{}
			cols[id] = map[int]bool{}
		}
		words[id][records[i].Addr] = true
		bits[id][records[i].LineBit()] = true
		cols[id][records[i].Col] = true
	}
	recovered := map[bankID][]FaultMode{}
	for _, f := range faults {
		k := bankID{f.Node, f.Slot, f.Rank, f.Bank}
		recovered[k] = append(recovered[k], f.Mode)
	}

	agree, recallBanks, recalled := 0, 0, 0
	for k, ids := range gt {
		if len(ids) != 1 {
			continue
		}
		id := ids[0]
		got := recovered[k]
		if len(words[id]) > 0 {
			recallBanks++
			if obs := TrueModeObservable(pop.Faults[id].Mode, len(words[id]), cfg); len(got) == 1 && got[0] == obs {
				recalled++
			}
		}
		var want FaultMode
		switch {
		case len(words[id]) == 1 && len(bits[id]) == 1:
			want = ModeSingleBit
		case len(words[id]) == 1:
			want = ModeSingleWord
		case len(cols[id]) == 1 && len(words[id]) >= cfg.ColMinWords:
			want = ModeSingleColumn
		case len(words[id]) >= cfg.BankMinWords:
			want = ModeSingleBank
		default:
			continue // two scattered words: legitimately split
		}
		m.BanksChecked++
		if len(got) == 1 && got[0] == want {
			agree++
		}
	}
	if m.BanksChecked > 0 {
		m.ModeAgreement = float64(agree) / float64(m.BanksChecked)
	}
	if recallBanks > 0 {
		m.ModeRecall = float64(recalled) / float64(recallBanks)
	}
	if len(pop.Faults) > 0 {
		m.FaultCountRatio = float64(len(faults)) / float64(len(pop.Faults))
	}
	return m, nil
}

// Ok reports whether the metrics meet the reproduction bar: every error
// attributed exactly once and ≥90% mode agreement on unambiguous banks.
func (m ValidationMetrics) Ok(totalRecords int) error {
	switch {
	case m.DoubleAttributed > 0:
		return fmt.Errorf("core: %d records attributed twice", m.DoubleAttributed)
	case m.ErrorsAttributed != totalRecords:
		return fmt.Errorf("core: %d of %d records attributed", m.ErrorsAttributed, totalRecords)
	case m.BanksChecked >= 50 && m.ModeAgreement < 0.9:
		return fmt.Errorf("core: mode agreement %.3f below 0.9", m.ModeAgreement)
	}
	return nil
}
