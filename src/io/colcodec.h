#ifndef MWSJ_IO_COLCODEC_H_
#define MWSJ_IO_COLCODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/effects.h"

namespace mwsj::colcodec {

/// Lightweight columnar codec for spilled rectangle streams (DESIGN.md
/// §2.13). A column is a u64 array; it is encoded in independent blocks of
/// `kBlockRows` values, each framed as
///
///   [1B bit-width w][8B first value, little-endian]
///   [ceil((count-1) * w / 8) bytes of LSB-first bitpacked zigzag deltas]
///
/// The delta + zigzag transform and the bitpack are plain scalar code, so
/// the encoded bytes do not depend on the CPU.
/// Sorted-key columns and the order-preserving double mapping below make
/// deltas small, which is where the compression comes from.

inline constexpr size_t kBlockRows = 256;

/// Bijective order-preserving map between doubles and u64 keys:
/// x < y  ⇔  Bits(x) < Bits(y) for all non-NaN doubles, and
/// DoubleFromOrderedBits(OrderedBitsFromDouble(x)) == x bit-for-bit —
/// including -0.0, which keeps a key of its own (below +0.0) even though
/// the two compare equal as doubles: spilled coordinates must round-trip
/// exactly.
inline uint64_t OrderedBitsFromDouble(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return (bits >> 63) ? ~bits : (bits | (uint64_t{1} << 63));
}

inline double DoubleFromOrderedBits(uint64_t key) {
  const uint64_t bits =
      (key >> 63) ? (key ^ (uint64_t{1} << 63)) : ~key;
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

/// Appends the encoding of vals[0..n) to *out. Returns the bytes appended.
/// n == 0 appends nothing. MWSJ_DETERMINISTIC: encoded bytes are pinned
/// identical across ISAs by the spill parity suite.
MWSJ_DETERMINISTIC size_t EncodeColumn(const uint64_t* vals, size_t n,
                                       std::vector<uint8_t>* out);

/// Decodes exactly `n` values from `data` into `out`. Returns the bytes
/// consumed, or 0 when `data`/`size` does not hold a well-formed encoding
/// of n values (truncated or oversized blocks).
MWSJ_DETERMINISTIC size_t DecodeColumn(const uint8_t* data, size_t size,
                                       size_t n, uint64_t* out);

/// Streaming block-at-a-time decoder over one encoded column; the spill
/// merge holds one cursor per run so at most kBlockRows decoded values per
/// column are resident at once.
class ColumnCursor {
 public:
  ColumnCursor() = default;
  ColumnCursor(const uint8_t* data, size_t size, size_t rows)
      : data_(data), size_(size), remaining_(rows) {}

  size_t rows_remaining() const { return remaining_; }

  /// Decodes the next block (up to kBlockRows values) into `out`, which
  /// must hold kBlockRows entries. Returns the decoded count; 0 when the
  /// column is exhausted or the input is malformed. MWSJ_ALLOC_FREE: runs
  /// once per block inside the k-way merge; decodes into caller storage.
  MWSJ_ALLOC_FREE size_t NextBlock(uint64_t* out);

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  size_t remaining_ = 0;
};

/// A frame bundles `cols` parallel columns of `rows` values each — one
/// spilled sorted run. Layout: [u32 cols][u64 rows][u64 byte-length × cols]
/// [column payloads]. All integers little-endian.
MWSJ_DETERMINISTIC void EncodeFrame(const uint64_t* const* columns,
                                    size_t cols, size_t rows,
                                    std::vector<uint8_t>* out);

/// Row-synchronized streaming reader over a frame: NextBlock advances every
/// column by the same count, so callers reassemble whole records.
class FrameReader {
 public:
  /// Parses the header; false on malformed input (bad sizes). Keeps a
  /// non-owning view of `data`.
  bool Init(const uint8_t* data, size_t size);

  size_t rows() const { return rows_; }
  size_t cols() const { return cursors_.size(); }

  /// Decodes the next up-to-kBlockRows rows of every column into `out`,
  /// column-major with stride kBlockRows (column c's values land at
  /// out[c * kBlockRows ...]). `out` must hold cols() * kBlockRows entries.
  /// Returns the row count; 0 at end of frame or on malformed payload.
  /// MWSJ_ALLOC_FREE: advances the per-column cursors into caller storage.
  MWSJ_ALLOC_FREE size_t NextBlock(uint64_t* out);

 private:
  size_t rows_ = 0;
  std::vector<ColumnCursor> cursors_;
};

}  // namespace mwsj::colcodec

#endif  // MWSJ_IO_COLCODEC_H_
