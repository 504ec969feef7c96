package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/simrand"
	"repro/internal/simtime"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// linePool recycles the per-line append buffers the streaming emitters
// render into, so writing a multi-gigabyte release allocates a handful of
// buffers total instead of one string per record.
var linePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// WriteSyslog renders the CE, DUE and HET record streams as one merged,
// time-ordered syslog, interleaving a line of unrelated kernel chatter
// every noiseEvery records (0 disables) so parsers are exercised on
// realistic input. Records are rendered through the zero-allocation wire
// codec into a pooled buffer and written straight to a buffered writer —
// no per-line string is ever built.
func (ds *Dataset) WriteSyslog(w io.Writer, noiseEvery int) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	ci, di, hi := 0, 0, 0
	n := 0
	rng := simrand.NewStream(ds.Config.Seed).Derive("syslog-noise")
	bufp := linePool.Get().(*[]byte)
	buf := *bufp
	defer func() { *bufp = buf; linePool.Put(bufp) }()
	// emit writes the rendered line in buf plus its newline, then any due
	// noise line (reusing the same buffer).
	emit := func() error {
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		n++
		if noiseEvery > 0 && n%noiseEvery == 0 {
			buf = syslog.AppendTimestamp(buf[:0], ds.timeCursor(ci, di, hi))
			buf = append(buf, ' ')
			buf = topology.NodeID(rng.IntN(ds.Config.Nodes)).AppendString(buf)
			buf = append(buf, " kernel: slurmd["...)
			buf = strconv.AppendInt(buf, int64(1000+rng.IntN(9000)), 10)
			buf = append(buf, "]: job step completed\n"...)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}
	for ci < len(ds.CERecords) || di < len(ds.DUERecords) || hi < len(ds.HETRecords) {
		switch ds.nextStream(ci, di, hi) {
		case 0:
			buf = syslog.AppendCE(buf[:0], ds.CERecords[ci])
			if err := emit(); err != nil {
				return err
			}
			ci++
		case 1:
			buf = syslog.AppendDUE(buf[:0], ds.DUERecords[di])
			if err := emit(); err != nil {
				return err
			}
			di++
		default:
			buf = syslog.AppendHET(buf[:0], ds.HETRecords[hi])
			if err := emit(); err != nil {
				return err
			}
			hi++
		}
	}
	return bw.Flush()
}

// nextStream picks which stream has the earliest pending record.
func (ds *Dataset) nextStream(ci, di, hi int) int {
	far := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	tc, td, th := far, far, far
	if ci < len(ds.CERecords) {
		tc = ds.CERecords[ci].Time
	}
	if di < len(ds.DUERecords) {
		td = ds.DUERecords[di].Time
	}
	if hi < len(ds.HETRecords) {
		th = ds.HETRecords[hi].Time
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

func (ds *Dataset) timeCursor(ci, di, hi int) time.Time {
	if ci < len(ds.CERecords) {
		return ds.CERecords[ci].Time
	}
	if hi < len(ds.HETRecords) {
		return ds.HETRecords[hi].Time
	}
	if di < len(ds.DUERecords) {
		return ds.DUERecords[di].Time
	}
	return ds.Config.Fault.End
}

// ceCSVHeader matches the paper's §2.4 release schema: "timestamp, node
// ID, socket, type of failure, DIMM slot, row, rank, bank, bit position,
// physical address and vendor-specific syndrome data".
var ceCSVHeader = []string{"timestamp", "node", "socket", "type", "slot", "row", "rank", "bank", "bitpos", "addr", "syndrome"}

// WriteCETelemetryCSV writes the dataset's CE records in the open-data
// CSV schema.
func (ds *Dataset) WriteCETelemetryCSV(w io.Writer) error {
	return WriteCERecordsCSV(w, ds.CERecords)
}

// WriteCERecordsCSV writes arbitrary CE records in the open-data CSV
// schema (used by the ETL tool on parsed logs). No field ever needs CSV
// quoting, so rows are rendered into a pooled buffer with the append
// emitters instead of going through encoding/csv's per-row []string.
func WriteCERecordsCSV(w io.Writer, records []mce.CERecord) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(strings.Join(ceCSVHeader, ",") + "\n"); err != nil {
		return err
	}
	bufp := linePool.Get().(*[]byte)
	buf := *bufp
	defer func() { *bufp = buf; linePool.Put(bufp) }()
	for i := range records {
		r := &records[i]
		buf = syslog.AppendTimestamp(buf[:0], r.Time)
		buf = append(buf, ',')
		buf = r.Node.AppendString(buf)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Socket), 10)
		buf = append(buf, ",mem-ce,"...)
		buf = r.Slot.AppendName(buf)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.RowRaw), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Rank), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Bank), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.BitPos), 10)
		buf = append(buf, ",0x"...)
		buf = strconv.AppendUint(buf, uint64(r.Addr), 16)
		buf = append(buf, ",0x"...)
		buf = strconv.AppendUint(buf, uint64(r.Syndrome), 16)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSensorCSV writes sensor telemetry over the environmental window,
// subsampled by nodeStride and minuteStride (both >= 1) to keep export
// sizes manageable — the full-rate data is ~2.7e9 samples.
func (ds *Dataset) WriteSensorCSV(w io.Writer, nodeStride, minuteStride int) error {
	if nodeStride < 1 || minuteStride < 1 {
		return fmt.Errorf("dataset: strides must be >= 1")
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString("timestamp,node,sensor,value\n"); err != nil {
		return err
	}
	start := simtime.MinuteOf(simtime.EnvStart)
	end := simtime.MinuteOf(simtime.EnvEnd)
	bufp := linePool.Get().(*[]byte)
	buf := *bufp
	defer func() { *bufp = buf; linePool.Put(bufp) }()
	var pfx []byte
	for n := 0; n < ds.Config.Nodes; n += nodeStride {
		node := topology.NodeID(n)
		for m := start; m < end; m += simtime.Minute(minuteStride) {
			// The "timestamp,node," prefix is shared by NumSensors rows.
			pfx = syslog.AppendTimestamp(pfx[:0], m.Time())
			pfx = append(pfx, ',')
			pfx = node.AppendString(pfx)
			pfx = append(pfx, ',')
			for s := topology.Sensor(0); s < topology.NumSensors; s++ {
				v, _ := ds.Env.Sample(node, s, m)
				buf = append(buf[:0], pfx...)
				buf = append(buf, s.String()...)
				buf = append(buf, ',')
				buf = strconv.AppendFloat(buf, v, 'f', 2, 64)
				buf = append(buf, '\n')
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// WriteReplacementsCSV writes the inventory replacement log.
func (ds *Dataset) WriteReplacementsCSV(w io.Writer) error {
	if ds.Inventory == nil {
		return fmt.Errorf("dataset: inventory not generated")
	}
	cw := csv.NewWriter(bufio.NewWriterSize(w, 1<<20))
	if err := cw.Write([]string{"date", "kind", "location", "old_serial", "new_serial"}); err != nil {
		return err
	}
	for _, rep := range ds.Inventory.Replacements {
		rec := []string{
			rep.Day.Time().Format("2006-01-02"),
			rep.Kind.String(),
			rep.Location(),
			rep.OldSerial,
			rep.NewSerial,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSyslog parses a merged syslog back into typed record streams with
// the maximally lenient policy: malformed lines are counted, nothing is
// deduplicated or reordered, and no malformed budget applies. Use
// ReadSyslogPolicy to opt into tolerance or strictness.
func ReadSyslog(r io.Reader) (ces []mce.CERecord, dues []mce.DUERecord, hets []het.Record, stats syslog.ScanStats, err error) {
	ces, dues, hets, rep, err := ReadSyslogPolicy(r, IngestPolicy{MaxMalformedFrac: -1})
	return ces, dues, hets, rep.ScanStats, err
}
