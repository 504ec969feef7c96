// Package mce models the machine-check / error-reporting path between the
// memory controller and the operating system: it turns raw fault-model
// events into the correctable-error records the kernel sees, including the
// two platform quirks the paper documents:
//
//   - the row field of a CE record carries no usable row information
//     (§3.2: "the system does not provide proper row information in the
//     correctable error record"), modeled as a firmware-wide opaque
//     scramble of the row — stable (the same row always reports the same
//     junk, on every node), so physical addresses remain usable
//     identifiers (Fig 8b), but semantically meaningless, so single-row
//     analysis is impossible;
//   - the bit-position field encodes vendor-specific data alongside the
//     failed bit (footnote 1: "seemed to encode additional data ... the
//     encoding was consistent"), modeled as consistent high bits ORed onto
//     the position.
//
// DUE records flow through a separate machine-check path that, unlike the
// CE path, is never subject to logging-space loss (§2.3).
package mce

import (
	"fmt"
	"time"

	"repro/internal/ecc"
	"repro/internal/faultmodel"
	"repro/internal/simrand"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// CERecord is a correctable-error record as delivered to the OS, with the
// field set the paper's open-data release documents (§2.4): timestamp,
// node, socket, failure type, DIMM slot, row, rank, bank, bit position,
// physical address and vendor syndrome.
type CERecord struct {
	// Time is the event timestamp (second resolution).
	Time time.Time
	// Node is the reporting node.
	Node topology.NodeID
	// Socket is the CPU socket (0 or 1).
	Socket int
	// Slot is the DIMM slot.
	Slot topology.Slot
	// Rank is the DIMM rank.
	Rank int
	// Bank is the DRAM bank.
	Bank int
	// RowRaw is the scrambled, semantically useless row field.
	RowRaw int
	// Col is the word column within the row.
	Col int
	// BitPos is the vendor-encoded bit position: the low 10 bits are the
	// position of the failed bit within the cache line (data positions
	// 0..511 plus per-word check-bit positions up to 575); higher bits
	// are consistent vendor data.
	BitPos int
	// Addr is the reported node-local physical address, with the row bits
	// replaced by the same firmware-wide scramble as RowRaw (stable: the
	// same cell always reports the same address).
	Addr topology.PhysAddr
	// Syndrome is the SEC-DED syndrome of the corrected error.
	Syndrome uint8
}

// LineBit extracts the failed cache-line bit position from the
// vendor-encoded BitPos field.
func (r CERecord) LineBit() int { return r.BitPos & 0x3ff }

// CheckRanges holds a CE record from outside the program to the field
// ranges the syslog grammar parses into, and its line-bit position to at
// most topology.MaxLineBitPosition. The analyses index by these fields,
// so every record source (syslog text, colfmt files, astrad state)
// rejects a record that fails this check rather than analyze it.
func (r CERecord) CheckRanges() error {
	switch {
	case !r.Node.Valid():
		return fmt.Errorf("mce: node %d out of range", r.Node)
	case !r.Slot.Valid() || r.Socket != r.Slot.Socket():
		return fmt.Errorf("mce: slot %d on socket %d out of range", r.Slot, r.Socket)
	case r.Rank < 0 || r.Rank >= topology.RanksPerDIMM:
		return fmt.Errorf("mce: rank %d out of range", r.Rank)
	case r.Bank < 0 || r.Bank >= topology.BanksPerRank:
		return fmt.Errorf("mce: bank %d out of range", r.Bank)
	case r.RowRaw < 0 || r.RowRaw >= topology.RowsPerBank:
		return fmt.Errorf("mce: row %d out of range", r.RowRaw)
	case r.Col < 0 || r.Col >= topology.ColsPerRow:
		return fmt.Errorf("mce: col %d out of range", r.Col)
	case r.BitPos < 0 || r.BitPos > 1<<20:
		return fmt.Errorf("mce: bitpos %d out of range", r.BitPos)
	case r.LineBit() > topology.MaxLineBitPosition:
		return fmt.Errorf("mce: bitpos %#x: line bit %d beyond %d", r.BitPos, r.LineBit(), topology.MaxLineBitPosition)
	case !r.Addr.Valid():
		return fmt.Errorf("mce: addr %#x out of range", uint64(r.Addr))
	}
	return nil
}

// DUERecord is a detected-uncorrectable-error record from the machine-check
// path.
type DUERecord struct {
	Time  time.Time
	Node  topology.NodeID
	Addr  topology.PhysAddr
	Cause faultmodel.DUECause
	// Fatal reports whether the machine check was fatal to the node
	// (logged to the serial console rather than syslog, §2.3).
	Fatal bool
}

// Encoder converts fault-model events into OS-visible records,
// deterministically for a given seed.
type Encoder struct {
	seed uint64
}

// NewEncoder returns an encoder whose scrambles and vendor encodings are
// derived from seed.
func NewEncoder(seed uint64) *Encoder {
	return &Encoder{seed: simrand.Hash64(seed, simrand.HashString("mce"))}
}

// scrambleRow maps a row to the opaque value the platform reports in its
// place. The scramble is firmware-wide — the same row yields the same junk
// on every node (the footnote-1 "the encoding was consistent" property) —
// so addresses remain stable identifiers, including across nodes.
func (e *Encoder) scrambleRow(row int) int {
	return int(simrand.Hash64(e.seed, 0x10, uint64(row)) & (topology.RowsPerBank - 1))
}

// vendorBits returns the consistent vendor data encoded above the bit
// position, a function of the node and DIMM only.
func (e *Encoder) vendorBits(node topology.NodeID, slot topology.Slot) int {
	return int(simrand.Hash64(e.seed, 0x11, uint64(node), uint64(slot)) & 0x7f)
}

// second assigns a stable within-minute second offset to an event.
func (e *Encoder) second(node topology.NodeID, m simtime.Minute, addr topology.PhysAddr, i int) int {
	return int(simrand.Hash64(e.seed, 0x12, uint64(node), uint64(m), uint64(addr), uint64(i)) % 60)
}

// EncodeCE converts a fault-model CE event into the record the OS sees.
// The index i distinguishes repeated errors at the same coordinates within
// one minute (it only perturbs the second-of-minute). An event with an
// invalid address is an error, not a panic.
func (e *Encoder) EncodeCE(ev faultmodel.CEEvent, i int) (CERecord, error) {
	cell, err := ev.Cell()
	if err != nil {
		return CERecord{}, fmt.Errorf("mce: encode CE: %w", err)
	}
	scrambled := e.scrambleRow(cell.Row)
	reported := cell
	reported.Row = scrambled
	syndrome := ecc.Syndrome(ecc.FlipBit(ecc.Encode(0), int(ev.Bit)))
	return CERecord{
		Time:     ev.Minute.Time().Add(time.Duration(e.second(ev.Node, ev.Minute, ev.Addr, i)) * time.Second),
		Node:     ev.Node,
		Socket:   cell.Slot.Socket(),
		Slot:     cell.Slot,
		Rank:     cell.Rank,
		Bank:     cell.Bank,
		RowRaw:   scrambled,
		Col:      cell.Col,
		BitPos:   topology.LineBitPosition(cell.Col, int(ev.Bit)) | e.vendorBits(ev.Node, cell.Slot)<<10,
		Addr:     topology.EncodePhysAddr(reported, 0),
		Syndrome: syndrome,
	}, nil
}

// EncodeDUE converts a fault-model DUE event into a machine-check record.
// Machine-check-exception DUEs are fatal; patrol-scrub ECC detections are
// not. An event with an invalid address is an error, not a panic.
func (e *Encoder) EncodeDUE(ev faultmodel.DUEEvent) (DUERecord, error) {
	cell, _, err := topology.DecodePhysAddr(ev.Node, ev.Addr)
	if err != nil {
		return DUERecord{}, fmt.Errorf("mce: DUE with invalid address: %w", err)
	}
	reported := cell
	reported.Row = e.scrambleRow(cell.Row)
	return DUERecord{
		Time:  ev.Minute.Time().Add(time.Duration(e.second(ev.Node, ev.Minute, ev.Addr, 0)) * time.Second),
		Node:  ev.Node,
		Addr:  topology.EncodePhysAddr(reported, 0),
		Cause: ev.Cause,
		Fatal: ev.Cause == faultmodel.CauseMachineCheck,
	}, nil
}

// ValidateRecord cross-checks the internal consistency of a CE record the
// way a defensive ETL should: the socket must match the slot's socket, the
// syndrome must correspond to a real single-bit flip, the line-bit position
// must agree with the syndrome's bit and the address's word offset, and
// the address's non-row coordinates must match the record's fields.
func ValidateRecord(r CERecord) error {
	if r.Socket != r.Slot.Socket() {
		return fmt.Errorf("mce: socket %d inconsistent with slot %s", r.Socket, r.Slot)
	}
	cell, _, err := topology.DecodePhysAddr(r.Node, r.Addr)
	if err != nil {
		return fmt.Errorf("mce: bad address: %w", err)
	}
	if cell.Slot != r.Slot || cell.Rank != r.Rank || cell.Bank != r.Bank || cell.Col != r.Col {
		return fmt.Errorf("mce: address coordinates %v disagree with record fields", cell)
	}
	bit := ecc.BitForSyndrome(r.Syndrome)
	if bit < 0 {
		return fmt.Errorf("mce: syndrome %#02x matches no single-bit error", r.Syndrome)
	}
	if want := topology.LineBitPosition(r.Col, bit); r.LineBit() != want {
		return fmt.Errorf("mce: line bit %d disagrees with syndrome bit (want %d)", r.LineBit(), want)
	}
	return nil
}

// VerifyCEClassification cross-checks that a CE event's bit flip really is
// correctable under the SEC-DED code and that a DUE event's multi-bit flip
// really is uncorrectable; the generator and the codec must agree. Used by
// integration tests and the dataset self-check.
func VerifyCEClassification(ce faultmodel.CEEvent) error {
	w := ecc.FlipBit(ecc.Encode(0), int(ce.Bit))
	if _, res, _, _ := ecc.Decode(w); res != ecc.Corrected {
		return fmt.Errorf("mce: CE bit %d decoded as %v", ce.Bit, res)
	}
	return nil
}

// VerifyDUEClassification checks that the DUE's flipped bits defeat
// SEC-DED correction.
func VerifyDUEClassification(due faultmodel.DUEEvent) error {
	w := ecc.Encode(0)
	for _, b := range due.Bits {
		w = ecc.FlipBit(w, int(b))
	}
	if _, res, _, _ := ecc.Decode(w); res != ecc.Uncorrectable {
		return fmt.Errorf("mce: DUE bits %v decoded as %v", due.Bits, res)
	}
	return nil
}
