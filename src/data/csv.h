// CSV import/export for Dataset. The format is one header line with
// attribute names plus a final "class" column; categorical values and class
// labels are written by name when the schema has names, otherwise by code.
//
// Accepted grammar on read: lines end in "\n" or "\r\n" (the last line may
// lack it); every field, and every line, is trimmed of ASCII whitespace;
// blank lines are skipped but still count in the "line N" of an error, as
// the header (line 1) does. A continuous value is "?" (missing) or a number
// in strtod's grammar; a categorical value or class label is a name from
// the schema or a numeric code in range. The first bad line in file order
// is reported.
//
// Loading is block-parallel with bounded memory: the calling thread reads
// the input kCsvBlockBytes at a time, cut at the last line break; up to
// hardware_concurrency blocks parse at once, and their tuples are appended
// in file order. The file is never held whole.

#ifndef SMPTREE_DATA_CSV_H_
#define SMPTREE_DATA_CSV_H_

#include <cstddef>
#include <string>

#include "data/dataset.h"
#include "util/status.h"

namespace smptree {

/// Bytes the loader reads at a time; a block is one read cut at its last
/// '\n', or more reads when one line is longer than this.
inline constexpr size_t kCsvBlockBytes = size_t{256} << 10;

/// Writes `data` as CSV to `path` (real filesystem).
Status WriteCsv(const Dataset& data, const std::string& path);

/// Reads a CSV written by WriteCsv (or hand-authored with the same layout)
/// against a known schema. The header is validated against the schema.
/// A failed open or read is an IOError; malformed content is Corruption.
Result<Dataset> ReadCsv(const Schema& schema, const std::string& path);

/// Serializes to a CSV string (used by tests and small examples).
std::string ToCsvString(const Dataset& data);

/// Parses from a CSV string, by the same loader as ReadCsv.
Result<Dataset> FromCsvString(const Schema& schema, const std::string& text);

}  // namespace smptree

#endif  // SMPTREE_DATA_CSV_H_
