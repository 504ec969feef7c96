package core

import "repro/internal/mce"

// NewRecordIndex and AnalyzeBitAddressWorkers exist only so bench/batch.go
// (the traced replay) keeps compiling; delete this file with it.

// NewRecordIndex returns IndexRecords(records, totalNodes); parallelism
// is ignored.
func NewRecordIndex(records []mce.CERecord, totalNodes, parallelism int) *RecordIndex {
	return IndexRecords(records, totalNodes)
}

// AnalyzeBitAddressWorkers returns AnalyzeBitAddress(faults); workers is
// ignored.
func AnalyzeBitAddressWorkers(faults []Fault, workers int) BitAddress {
	return AnalyzeBitAddress(faults)
}
