// Package topology models the physical structure of the Astra system: the
// rack/chassis/node hierarchy, the per-node socket and DIMM-slot layout,
// DRAM device geometry, the mapping between physical addresses and DRAM
// coordinates, and the placement of environmental sensors relative to the
// front-to-back airflow.
//
// All of the positional analyses in the paper (per-socket, per-bank,
// per-column, per-rank, per-slot, per-region, per-rack) are expressed in
// terms of the coordinates defined here.
package topology

import "fmt"

// System-level constants for Astra (HPDC'22 §2.2).
const (
	// Racks is the number of compute racks.
	Racks = 36
	// ChassisPerRack is the number of vertically stacked chassis per rack.
	ChassisPerRack = 18
	// NodesPerChassis is the number of compute nodes per chassis.
	NodesPerChassis = 4
	// NodesPerRack is the number of compute nodes in one rack.
	NodesPerRack = ChassisPerRack * NodesPerChassis
	// Nodes is the total number of compute nodes (2592).
	Nodes = Racks * NodesPerRack

	// SocketsPerNode is the number of CPU sockets per node.
	SocketsPerNode = 2
	// ChannelsPerSocket is the number of memory channels per socket; Astra
	// populates one DIMM per channel.
	ChannelsPerSocket = 8
	// SlotsPerNode is the number of DIMM slots per node (A..P).
	SlotsPerNode = SocketsPerNode * ChannelsPerSocket
	// DIMMs is the total number of DIMMs in the system (41472).
	DIMMs = Nodes * SlotsPerNode

	// RanksPerDIMM is the number of ranks on each dual-rank DIMM.
	RanksPerDIMM = 2
	// BanksPerRank is the number of DRAM banks per rank (DDR4: 4 bank
	// groups of 4 banks).
	BanksPerRank = 16
	// RowsPerBank is the number of rows per bank in the modeled devices.
	RowsPerBank = 1 << 15
	// ColsPerRow is the number of (64-bit word) columns per row.
	ColsPerRow = 1 << 10

	// WordBytes is the size of one ECC-protected data word.
	WordBytes = 8
	// CachelineBytes is the size of one cache line.
	CachelineBytes = 64
	// WordsPerLine is the number of ECC words per cache line.
	WordsPerLine = CachelineBytes / WordBytes
	// DataBitsPerWord is the number of data bits per ECC word.
	DataBitsPerWord = 64
	// CodeBitsPerWord is the number of bits in one SEC-DED codeword.
	CodeBitsPerWord = 72
	// LineBits is the number of data bits in one cache line.
	LineBits = CachelineBytes * 8
)

// NodeID identifies a compute node, in [0, Nodes).
type NodeID int

// NewNodeID builds a NodeID from rack, chassis-in-rack and node-in-chassis
// coordinates. It panics if any coordinate is out of range; callers
// constructing IDs from untrusted input should validate first.
func NewNodeID(rack, chassis, node int) NodeID {
	if rack < 0 || rack >= Racks || chassis < 0 || chassis >= ChassisPerRack || node < 0 || node >= NodesPerChassis {
		panic(fmt.Sprintf("topology: invalid node coordinate r%d c%d n%d", rack, chassis, node))
	}
	return NodeID(rack*NodesPerRack + chassis*NodesPerChassis + node)
}

// Valid reports whether the node ID is in range.
func (n NodeID) Valid() bool { return n >= 0 && n < Nodes }

// Rack returns the rack number, in [0, Racks).
func (n NodeID) Rack() int { return int(n) / NodesPerRack }

// Chassis returns the chassis position within the rack, in
// [0, ChassisPerRack), counted from the bottom of the rack.
func (n NodeID) Chassis() int { return (int(n) % NodesPerRack) / NodesPerChassis }

// NodeInChassis returns the position within the chassis.
func (n NodeID) NodeInChassis() int { return int(n) % NodesPerChassis }

// Region returns the vertical rack region the node's chassis belongs to.
func (n NodeID) Region() Region { return RegionOfChassis(n.Chassis()) }

// String renders the canonical host name, e.g. "astra-r03c11n2".
func (n NodeID) String() string {
	return fmt.Sprintf("astra-r%02dc%02dn%d", n.Rack(), n.Chassis(), n.NodeInChassis())
}

// AppendString appends the canonical host name to dst without allocating
// (for valid IDs; out-of-range IDs fall back to String's rendering).
func (n NodeID) AppendString(dst []byte) []byte {
	if !n.Valid() {
		return append(dst, n.String()...)
	}
	rack, chassis := n.Rack(), n.Chassis()
	dst = append(dst, "astra-r"...)
	dst = append(dst, byte('0'+rack/10), byte('0'+rack%10), 'c')
	dst = append(dst, byte('0'+chassis/10), byte('0'+chassis%10), 'n')
	return append(dst, byte('0'+n.NodeInChassis()))
}

// ParseCanonicalNodeID reads a host name exactly as AppendString writes
// it, "astra-rRRcCCnN", without allocating, to the node ParseNodeID
// returns for it. ok is false for any other spelling, including ones
// ParseNodeID accepts.
func ParseCanonicalNodeID(b []byte) (id NodeID, ok bool) {
	if len(b) != 14 || string(b[:7]) != "astra-r" || b[9] != 'c' || b[12] != 'n' {
		return 0, false
	}
	for _, i := range [...]int{7, 8, 10, 11, 13} {
		if b[i] < '0' || b[i] > '9' {
			return 0, false
		}
	}
	rack := int(b[7]-'0')*10 + int(b[8]-'0')
	chassis := int(b[10]-'0')*10 + int(b[11]-'0')
	node := int(b[13] - '0')
	if rack >= Racks || chassis >= ChassisPerRack || node >= NodesPerChassis {
		return 0, false
	}
	return NewNodeID(rack, chassis, node), true
}

// ParseNodeID parses the canonical host-name form produced by String.
func ParseNodeID(s string) (NodeID, error) {
	var r, c, nn int
	if _, err := fmt.Sscanf(s, "astra-r%02dc%02dn%d", &r, &c, &nn); err != nil {
		return 0, fmt.Errorf("topology: bad node name %q: %w", s, err)
	}
	if r < 0 || r >= Racks || c < 0 || c >= ChassisPerRack || nn < 0 || nn >= NodesPerChassis {
		return 0, fmt.Errorf("topology: node name %q out of range", s)
	}
	return NewNodeID(r, c, nn), nil
}

// Region is a vertical third of a rack: the paper divides Astra's 18
// chassis per rack into bottom, middle and top regions of 6 chassis each to
// compare against the Cielo/Jaguar positional studies.
type Region int

// Rack regions, bottom to top.
const (
	RegionBottom Region = iota
	RegionMiddle
	RegionTop
	// NumRegions is the number of rack regions.
	NumRegions
)

// RegionOfChassis maps a chassis position (0 = bottom) to its region.
// It panics if chassis is out of range.
func RegionOfChassis(chassis int) Region {
	if chassis < 0 || chassis >= ChassisPerRack {
		panic(fmt.Sprintf("topology: invalid chassis %d", chassis))
	}
	return Region(chassis / (ChassisPerRack / int(NumRegions)))
}

// String returns "bottom", "middle" or "top".
func (r Region) String() string {
	switch r {
	case RegionBottom:
		return "bottom"
	case RegionMiddle:
		return "middle"
	case RegionTop:
		return "top"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Slot identifies a DIMM slot within a node, in [0, SlotsPerNode).
// Slots 0..7 are lettered A..H and attach to socket 0 (the paper's CPU1);
// slots 8..15 are lettered I..P and attach to socket 1 (CPU2).
type Slot int

// Valid reports whether the slot index is in range.
func (s Slot) Valid() bool { return s >= 0 && s < SlotsPerNode }

// Socket returns the CPU socket the slot attaches to (0 or 1).
func (s Slot) Socket() int { return int(s) / ChannelsPerSocket }

// Channel returns the memory channel within the socket (0..7).
func (s Slot) Channel() int { return int(s) % ChannelsPerSocket }

// Name returns the slot letter "A".."P".
func (s Slot) Name() string {
	if !s.Valid() {
		return fmt.Sprintf("Slot(%d)", int(s))
	}
	return string(rune('A' + int(s)))
}

// String is an alias for Name.
func (s Slot) String() string { return s.Name() }

// AppendName appends the slot letter to dst without allocating (for valid
// slots; out-of-range slots fall back to Name's rendering).
func (s Slot) AppendName(dst []byte) []byte {
	if !s.Valid() {
		return append(dst, s.Name()...)
	}
	return append(dst, byte('A'+int(s)))
}

// ParseSlot parses a slot letter "A".."P" (case-insensitive).
func ParseSlot(name string) (Slot, error) {
	if len(name) != 1 {
		return 0, fmt.Errorf("topology: bad slot name %q", name)
	}
	c := name[0]
	if c >= 'a' && c <= 'p' {
		c -= 'a' - 'A'
	}
	if c < 'A' || c > 'P' {
		return 0, fmt.Errorf("topology: bad slot name %q", name)
	}
	return Slot(c - 'A'), nil
}

// AllSlots returns the 16 slots in order A..P.
func AllSlots() []Slot {
	out := make([]Slot, SlotsPerNode)
	for i := range out {
		out[i] = Slot(i)
	}
	return out
}

// DIMMIndex returns the system-global DIMM index of (node, slot), in
// [0, DIMMs). It panics on invalid coordinates.
func DIMMIndex(node NodeID, slot Slot) int {
	if !node.Valid() || !slot.Valid() {
		panic(fmt.Sprintf("topology: invalid DIMM coordinate %v/%v", node, slot))
	}
	return int(node)*SlotsPerNode + int(slot)
}
