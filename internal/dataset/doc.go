// Package dataset implements the versioned on-disk record format that
// decouples measurement generation from localization: a gzipped JSONL
// stream whose first line is a self-describing header and whose remaining
// lines are one measurement record each, grouped by measurement day.
//
// The header carries everything the tomography and the report layer need
// beyond the raw records — the measurement period, the vantage and target
// tables, the AS metadata table (names, countries, CAIDA-style classes)
// and the ground-truth censor list — plus the code tables (anomaly kinds,
// elimination reasons, URL categories) that records reference by index,
// so a v1 file can be decoded without consulting this package's constants.
// A record's anomaly bits and its ground-truth acts' kinds both read
// through the header's anomaly table; a set bit the table does not name
// is a decode error, as is a fail code outside the reason table.
//
// Both directions of the record codec have a hand-written fast path with
// encoding/json as the reference. appendWire writes every record that
// carries no string override; parseWire reads a line only when it has
// exactly the shape appendWire writes (keys in order, optional keys only
// when non-zero, plain JSON integers that fit their fields, no
// whitespace). Any other line falls back to json.Unmarshal, so the set of
// lines Decode accepts, and its errors, are encoding/json's.
// TestAppendWireMatchesJSON and FuzzParseWire pin both fast paths against
// encoding/json.
//
// Decode lays the records out in one day-ordered table and cuts each day
// as a view of it, so iclab.MergeShards over a decoded File returns the
// table without a copy. Records append into the table as they are read:
// its capacity doubles and the header's record count only caps it, so
// decode never holds more than about twice the records it has read, and
// a truthful header's table ends exactly full. Records' paths and acts
// are carved from shared chunks rather than allocated one by one. A
// stream whose records are not in day order is laid out again by day,
// keeping each day's records in stream order.
//
// Format stability is pinned by a checked-in golden file
// (testdata/golden_v1.jsonl.gz): any encoder change that breaks v1
// compatibility fails TestGoldenV1 loudly. Decode validates the magic and
// version up front and never panics on corrupt input: a header may claim
// at most 2^20 days, a record line may be at most 1 MiB (maxRecordLine),
// and the header's record count is checked and never sizes more than the
// records read; the day batches are allocated only once the count checks
// out (TestDecodeAllocationBudget). FuzzDatasetRoundTrip exercises the
// codec both ways and FuzzDatasetDecode feeds Decode arbitrary bytes, raw
// and gzip-wrapped.
package dataset
