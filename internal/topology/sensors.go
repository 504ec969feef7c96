package topology

import "fmt"

// Sensor identifies one of the per-node measurement points: six temperature
// sensors (one CPU sensor per socket, two DIMM-group sensors per socket)
// and one DC power sensor (§2.2).
type Sensor int

// Per-node sensors. The paper names sockets CPU1 and CPU2; CPU1 is socket 0
// (downstream in the airflow, hotter) and CPU2 is socket 1 (upstream,
// cooler). Each DIMM temperature sensor covers a group of four slots.
const (
	// SensorCPU1 measures the socket-0 (CPU1) package temperature.
	SensorCPU1 Sensor = iota
	// SensorCPU2 measures the socket-1 (CPU2) package temperature.
	SensorCPU2
	// SensorDIMMACEG covers socket-0 slots A, C, E, G (paper: "CPU1 DIMMs 1-4").
	SensorDIMMACEG
	// SensorDIMMBDFH covers socket-0 slots H, F, D, B (paper: "CPU1 DIMMs 5-8").
	SensorDIMMBDFH
	// SensorDIMMIKMO covers socket-1 slots I, K, M, O (paper: "CPU2 DIMMs 1-4").
	SensorDIMMIKMO
	// SensorDIMMJLNP covers socket-1 slots J, L, N, P (paper: "CPU2 DIMMs 5-8").
	SensorDIMMJLNP
	// SensorDCPower measures whole-node DC input power in watts.
	SensorDCPower
	// NumSensors is the number of per-node sensors.
	NumSensors
)

// TemperatureSensors lists the six temperature sensors (excludes power).
func TemperatureSensors() []Sensor {
	return []Sensor{SensorCPU1, SensorCPU2, SensorDIMMACEG, SensorDIMMBDFH, SensorDIMMIKMO, SensorDIMMJLNP}
}

// IsTemperature reports whether the sensor measures a temperature.
func (s Sensor) IsTemperature() bool { return s >= SensorCPU1 && s <= SensorDIMMJLNP }

// IsDIMM reports whether the sensor is one of the DIMM-group sensors.
func (s Sensor) IsDIMM() bool { return s >= SensorDIMMACEG && s <= SensorDIMMJLNP }

// Socket returns the socket a temperature sensor is associated with, or -1
// for the node-level power sensor.
func (s Sensor) Socket() int {
	switch s {
	case SensorCPU1, SensorDIMMACEG, SensorDIMMBDFH:
		return 0
	case SensorCPU2, SensorDIMMIKMO, SensorDIMMJLNP:
		return 1
	default:
		return -1
	}
}

// String returns the stable name used in the exported sensor data files.
func (s Sensor) String() string {
	switch s {
	case SensorCPU1:
		return "cpu1_temp"
	case SensorCPU2:
		return "cpu2_temp"
	case SensorDIMMACEG:
		return "dimm_aceg_temp"
	case SensorDIMMBDFH:
		return "dimm_bdfh_temp"
	case SensorDIMMIKMO:
		return "dimm_ikmo_temp"
	case SensorDIMMJLNP:
		return "dimm_jlnp_temp"
	case SensorDCPower:
		return "dc_power"
	default:
		return fmt.Sprintf("Sensor(%d)", int(s))
	}
}

// slotSensor maps each DIMM slot to its covering temperature sensor.
var slotSensor = [SlotsPerNode]Sensor{
	'A' - 'A': SensorDIMMACEG,
	'B' - 'A': SensorDIMMBDFH,
	'C' - 'A': SensorDIMMACEG,
	'D' - 'A': SensorDIMMBDFH,
	'E' - 'A': SensorDIMMACEG,
	'F' - 'A': SensorDIMMBDFH,
	'G' - 'A': SensorDIMMACEG,
	'H' - 'A': SensorDIMMBDFH,
	'I' - 'A': SensorDIMMIKMO,
	'J' - 'A': SensorDIMMJLNP,
	'K' - 'A': SensorDIMMIKMO,
	'L' - 'A': SensorDIMMJLNP,
	'M' - 'A': SensorDIMMIKMO,
	'N' - 'A': SensorDIMMJLNP,
	'O' - 'A': SensorDIMMIKMO,
	'P' - 'A': SensorDIMMJLNP,
}

// SensorForSlot returns the DIMM-group temperature sensor that covers the
// given slot. It panics on an invalid slot.
func SensorForSlot(s Slot) Sensor {
	if !s.Valid() {
		panic(fmt.Sprintf("topology: invalid slot %d", int(s)))
	}
	return slotSensor[s]
}

// AirflowDepth returns the normalized position of a temperature sensor
// along the front-to-back airflow path, in [0, 1]: 0 is at the cold front
// of the node, 1 at the hot rear. Astra cools front to back; socket 1
// (CPU2) sits upstream of socket 0 (CPU1), so CPU1 and its DIMMs run
// warmer (Figure 1 / §3.3).
func AirflowDepth(s Sensor) float64 {
	switch s {
	case SensorDIMMIKMO:
		return 0.15
	case SensorDIMMJLNP:
		return 0.25
	case SensorCPU2:
		return 0.35
	case SensorDIMMACEG:
		return 0.60
	case SensorDIMMBDFH:
		return 0.70
	case SensorCPU1:
		return 0.80
	default:
		return 0.5
	}
}
