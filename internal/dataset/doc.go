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
// Decode runs in two stages joined by a bounded queue, the two tasks of
// one parallel.ForEach, so inflating the stream overlaps parsing it. The
// reader stage reads the inflated stream ahead, one read per recycled
// 64 KiB block, and queues each block with the error its read returned.
// The other stage is the serial line loop, decodePlain, reading the queue
// through an io.Reader that serves the blocks' bytes and then that error.
// The loop thus reads what it would read from the stream itself, so the
// records, the errors, their order and the line cap (maxRecordLine) are
// the serial loop's by construction. At most four blocks are in flight,
// so a gzip bomb costs at most four blocks of read-ahead. However the loop
// returns, it closes the queue of free blocks, which stops the reader once
// it has used the blocks left in it. A final line without a newline is a
// record line, and so is a blank line, which fails to decode.
// FuzzDatasetDecode and TestDecodePipelineMatchesSerial hold the pipeline
// to the loop alone at block sizes that cut lines, records and error text
// alike.
//
// Decode lays the records out in one day-ordered table and cuts each day
// as a view of it, so iclab.MergeShards over a decoded File returns the
// table without a copy. Each record is decoded in its slot of the table.
// The table doubles until the records read reach an eighth of the
// header's record count and is then sized to the count, so a truthful
// header's table ends exactly full after allocating about 1.25 times it
// in all, and a lying header costs at most eight times the records read
// (two while the table only doubled). Records' paths and acts are carved
// from shared chunks (iclab.Arena, which measurement carves its records'
// paths from too) rather than allocated one by one. A stream whose
// records are not in day order is laid out again by day, keeping each
// day's records in stream order.
//
// Decode numbers the table's AS paths as it parses them: every record
// carries the PathID iclab.NumberPaths would give it over the table, and
// records of one path share one array. The numbering (linePaths over an
// iclab.PathNumbering) keys a path by its digits in the record line:
// parseWire accepts only canonical digits, so equal bytes mean an equal,
// already validated path, and a path seen before is neither parsed nor
// copied. A "tp" array with the same digits as "p" shares the path's
// array. A line that falls back to json.Unmarshal is keyed by its path's
// canonical digits, so both kinds of line number alike, and a stream laid
// out again by day is numbered afresh in table order. The file format is
// unchanged: PathID is never written. FuzzDatasetDecode and FuzzParseWire
// hold every stream that decodes to NumberPaths' numbering.
//
// Format stability is pinned by a checked-in golden file
// (testdata/golden_v1.jsonl.gz): any encoder change that breaks v1
// compatibility fails TestGoldenV1 loudly. Decode validates the magic and
// version up front and never panics on corrupt input: a header may claim
// at most 2^20 days, a record line may be at most 1 MiB (maxRecordLine),
// and the header's record count is checked and sizes at most eight times
// the records read; the day batches are allocated only once the count
// checks out (TestDecodeAllocationBudget). FuzzDatasetRoundTrip exercises
// the codec both ways and FuzzDatasetDecode feeds Decode arbitrary bytes,
// raw and gzip-wrapped.
package dataset
