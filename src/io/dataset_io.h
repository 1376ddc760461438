#ifndef MWSJ_IO_DATASET_IO_H_
#define MWSJ_IO_DATASET_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/rect.h"
#include "localjoin/tuple_block.h"

namespace mwsj {

/// Dataset (de)serialization in two formats:
///
///  * CSV, one rectangle per line in the paper's (x, y, l, b) notation
///    with a `x,y,l,b` header — human-readable interchange;
///  * a binary format (magic "MWSJR1", record count, packed doubles) —
///    compact and fast for large datasets.
///
/// `ReadRects` dispatches on the file extension: `.csv` reads CSV,
/// anything else reads binary.

Status WriteRectsCsv(const std::string& path, const std::vector<Rect>& rects);
StatusOr<std::vector<Rect>> ReadRectsCsv(const std::string& path);

Status WriteRectsBinary(const std::string& path,
                        const std::vector<Rect>& rects);
StatusOr<std::vector<Rect>> ReadRectsBinary(const std::string& path);

StatusOr<std::vector<Rect>> ReadRects(const std::string& path);
Status WriteRects(const std::string& path, const std::vector<Rect>& rects);

/// Writes join output tuples as CSV: a header naming the relations, then
/// one comma-separated decimal id row per tuple.
Status WriteTuplesCsv(const std::string& path,
                      const std::vector<std::string>& relation_names,
                      const TupleBlock& tuples);

}  // namespace mwsj

#endif  // MWSJ_IO_DATASET_IO_H_
