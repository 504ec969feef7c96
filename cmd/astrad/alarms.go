// Alarm ledger: the daemon's record of when each bank first scored at
// or above the alarm threshold under the serving predictor. Feature
// state rebuilds from the restored CE records on every restart (it is a
// pure function of them), but first-alarm times are not derivable from
// the records — they say when errors happened, not when the predictor
// first flagged the bank — so they are durable state, carried at the end
// of every site's state section. Preserving them across restarts keeps
// lead-time accounting honest: a bank that alarmed Monday and failed
// Friday shows four days of warning even if the daemon restarted
// Wednesday.
package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/topology"
)

// alarmEntry is one persisted first-alarm fact.
type alarmEntry struct {
	key core.BankKey
	at  int64 // wall clock, UnixNano
}

// alarmLedger tracks one site's first-alarm times. It lives on the
// siteDaemon, outside any pipeline incarnation: a supervised restart
// rebuilds the engine but restores the ledger from the site's section,
// so alarm times never move backward or re-stamp.
type alarmLedger struct {
	mu    sync.Mutex
	first map[core.BankKey]int64
}

// observe scores every bank's current features and stamps now as the
// first-alarm time for banks newly at or above threshold. Already-
// alarmed banks keep their original stamp even if their score later
// drops (the window forgetting a burst does not unring the alarm).
func (l *alarmLedger) observe(banks []predict.BankFeatures, p predict.Predictor, threshold float64, now time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	added := 0
	for i := range banks {
		if _, ok := l.first[banks[i].Key]; ok {
			continue
		}
		if p.Score(&banks[i].F) >= threshold {
			if l.first == nil {
				l.first = make(map[core.BankKey]int64)
			}
			l.first[banks[i].Key] = now.UnixNano()
			added++
		}
	}
	return added
}

// size returns the number of alarmed banks.
func (l *alarmLedger) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.first)
}

// snapshot returns the ledger sorted by bank key, so marshaling is
// deterministic (round-trip tests and checkpoint diffing rely on it).
func (l *alarmLedger) snapshot() []alarmEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]alarmEntry, 0, len(l.first))
	for k, at := range l.first {
		out = append(out, alarmEntry{key: k, at: at})
	}
	sort.Slice(out, func(i, j int) bool { return lessBankKey(out[i].key, out[j].key) })
	return out
}

// replace resets the ledger to a restored snapshot.
func (l *alarmLedger) replace(entries []alarmEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.first = make(map[core.BankKey]int64, len(entries))
	for _, e := range entries {
		l.first[e.key] = e.at
	}
}

func lessBankKey(a, b core.BankKey) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Slot != b.Slot {
		return a.Slot < b.Slot
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Bank < b.Bank
}

// appendAlarms renders the alarms part of a site section.
func appendAlarms(b *bytes.Buffer, alarms []alarmEntry) {
	fmt.Fprintf(b, "alarms %d\n", len(alarms))
	for _, a := range alarms {
		fmt.Fprintf(b, "alarm %s %d %d %d %d\n",
			a.key.Node.String(), int(a.key.Slot), a.key.Rank, a.key.Bank, a.at)
	}
}

// alarms parses the alarms part of a site section.
func (r *stateReader) alarms() ([]alarmEntry, error) {
	n, err := r.count("alarms")
	if err != nil {
		return nil, err
	}
	var alarms []alarmEntry
	for i := 0; i < n; i++ {
		at := r.off
		line, ok := r.line()
		if !ok {
			return nil, r.fail("truncated at alarm %d of %d", i, n)
		}
		a, err := parseAlarm(line)
		if err != nil {
			r.off = at
			return nil, r.fail("alarm %d: %v", i, err)
		}
		alarms = append(alarms, a)
	}
	return alarms, nil
}

// parseAlarm parses one "alarm <host> <slot> <rank> <bank> <unix nanos>"
// line, holding the bank key to the topology's ranges.
func parseAlarm(line []byte) (alarmEntry, error) {
	var node string
	var slot, rank, bank int
	var at int64
	if n, err := fmt.Sscanf(string(line), "alarm %s %d %d %d %d", &node, &slot, &rank, &bank, &at); err != nil || n != 5 {
		return alarmEntry{}, fmt.Errorf("bad line %q", line)
	}
	id, err := topology.ParseNodeID(node)
	switch {
	case err != nil:
		return alarmEntry{}, err
	case !topology.Slot(slot).Valid():
		return alarmEntry{}, fmt.Errorf("slot %d out of range", slot)
	case rank < 0 || rank >= topology.RanksPerDIMM:
		return alarmEntry{}, fmt.Errorf("rank %d out of range", rank)
	case bank < 0 || bank >= topology.BanksPerRank:
		return alarmEntry{}, fmt.Errorf("bank %d out of range", bank)
	}
	return alarmEntry{
		key: core.BankKey{Node: id, Slot: topology.Slot(slot), Rank: int8(rank), Bank: int8(bank)},
		at:  at,
	}, nil
}
