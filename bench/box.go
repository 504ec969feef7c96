package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Box records the machine a set ran on, so two sets are only compared
// when their boxes match, and a fixed in-process kernel measured at the
// start and end of the set says whether the box itself changed speed.
type Box struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"goVersion"`
	CalibStart float64 `json:"calibStartMBPerS"`
	CalibEnd   float64 `json:"calibEndMBPerS"`
}

func newBox() (Box, error) {
	b := Box{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
	}
	if b.GOMAXPROCS > b.NProc {
		return b, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this box; load and system would share cores the record does not show", b.GOMAXPROCS, b.NProc)
	}
	return b, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// kernelInput is the calibration kernel's input: SHA-256 over a fixed
// 16 MiB buffer, larger than the caches, so the kernel slows when
// neighbours contend for memory as well as for the core.
func kernelInput() []byte {
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	return buf
}

// calibrate runs the calibration kernel for 200 ms and returns its
// median speed in MB/s.
func calibrate() float64 {
	s := newSpeedometer()
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		s.burst()
	}
	return median(s.mbps)
}

// nominalMBPerS is the speed the CPU-bound metrics are scaled to, about
// what the kernel reads on a quiet 2-vCPU Xeon box. It is a fixed unit,
// not a baseline: changing it rescales every scaled metric.
const nominalMBPerS = 1300

// speedometer samples the box's speed between a run's operations, one
// pass of the calibration kernel (~13 ms) at a time. On a shared host,
// neighbours slow every process by 10-40% for minutes at a time, which a
// 20 s run cannot average out. The kernel slows with them (over 20 s
// windows on a 2-vCPU Xeon VM its speed and astrareport's correlated at
// 0.7-0.9), so the CPU-bound metrics are scaled by the run's median
// kernel speed against nominalMBPerS (see Result.scale).
type speedometer struct {
	buf  []byte
	mbps []float64
}

func newSpeedometer() *speedometer { return &speedometer{buf: kernelInput()} }

// burst runs the kernel once and records its speed. It first collects
// the benchmark's own garbage: right after set-up or a live-tail phase the
// collector would otherwise run beside the kernel and read as a slow box.
func (s *speedometer) burst() {
	runtime.GC()
	start := time.Now()
	sha256.Sum256(s.buf)
	s.mbps = append(s.mbps, float64(len(s.buf))/1e6/time.Since(start).Seconds())
}

// factor is the run's median kernel speed over the nominal speed: below
// 1 when the box ran slow.
func (s *speedometer) factor() float64 { return median(s.mbps) / nominalMBPerS }
