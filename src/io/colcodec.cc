// mwsj-check: spill-budgeted
//
// Block codec implementation: a delta + zigzag transform and an LSB-first
// bitpack (one u128 accumulator), all plain scalar code, so the encoded
// bytes do not depend on the CPU the spill ran on.
#include "io/colcodec.h"

#include <algorithm>

namespace mwsj::colcodec {

namespace {

// Per-block scratch is bounded by kBlockRows, so nothing here grows with
// column length.
constexpr size_t kBlockHeaderBytes = 1 + 8;

inline uint64_t WidthMask(int width) {
  return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

inline int BitWidth(uint64_t mask) {
  return mask == 0 ? 0 : 64 - __builtin_clzll(mask);
}

void AppendU64Le(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint64_t ReadU64Le(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

// LSB-first bitpack of n values at `width` bits each. The u128 accumulator
// never overflows: at most 7 carried bits + 64 new ones.
void PackBits(const uint64_t* vals, size_t n, int width,
              std::vector<uint8_t>* out) {
  if (width == 0) return;
  const uint64_t mask = WidthMask(width);
  unsigned __int128 acc = 0;
  int bits = 0;
  for (size_t i = 0; i < n; ++i) {
    acc |= static_cast<unsigned __int128>(vals[i] & mask) << bits;
    bits += width;
    while (bits >= 8) {
      out->push_back(static_cast<uint8_t>(acc & 0xff));
      acc >>= 8;
      bits -= 8;
    }
  }
  if (bits > 0) out->push_back(static_cast<uint8_t>(acc & 0xff));
}

void UnpackBits(const uint8_t* data, size_t n, int width, uint64_t* out) {
  const uint64_t mask = WidthMask(width);
  unsigned __int128 acc = 0;
  int bits = 0;
  size_t p = 0;
  for (size_t i = 0; i < n; ++i) {
    while (bits < width) {
      acc |= static_cast<unsigned __int128>(data[p++]) << bits;
      bits += 8;
    }
    out[i] = static_cast<uint64_t>(acc) & mask;
    acc >>= width;
    bits -= width;
  }
}

// Zigzag over wrapping u64 differences: small signed deltas map to small
// unsigned codes, and decode is the exact inverse. All arithmetic wraps, so
// any delta round-trips.
inline uint64_t ZigzagEncode(uint64_t delta) {
  return (delta << 1) ^
         static_cast<uint64_t>(static_cast<int64_t>(delta) >> 63);
}

inline uint64_t ZigzagDecode(uint64_t z) {
  return (z >> 1) ^ (uint64_t{0} - (z & 1));
}

// Writes the n-1 zigzag-encoded adjacent differences of vals[0..n) to out
// and returns the OR of all of them, from which the encoder derives the
// block's pack width. n <= 1 writes nothing and returns 0.
uint64_t DeltaZigzagEncode(const uint64_t* vals, size_t n, uint64_t* out) {
  uint64_t or_mask = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const uint64_t z = ZigzagEncode(vals[i + 1] - vals[i]);
    out[i] = z;
    or_mask |= z;
  }
  return or_mask;
}

// Inverse: out[0] = base, out[i] = out[i-1] + unzigzag(deltas[i-1]).
void DeltaZigzagDecode(const uint64_t* deltas, size_t n, uint64_t base,
                       uint64_t* out) {
  if (n == 0) return;
  out[0] = base;
  for (size_t i = 1; i < n; ++i) {
    base += ZigzagDecode(deltas[i - 1]);
    out[i] = base;
  }
}

inline size_t PackedBytes(size_t n, int width) {
  return (n * static_cast<size_t>(width) + 7) / 8;
}

// Decodes one block of `count` values starting at data[pos]; returns the
// bytes consumed or 0 on truncation.
size_t DecodeBlock(const uint8_t* data, size_t size, size_t pos, size_t count,
                   uint64_t* out) {
  if (pos + kBlockHeaderBytes > size) return 0;
  const int width = data[pos];
  if (width > 64) return 0;
  const uint64_t base = ReadU64Le(data + pos + 1);
  const size_t packed = PackedBytes(count - 1, width);
  if (pos + kBlockHeaderBytes + packed > size) return 0;
  uint64_t deltas[kBlockRows];
  if (width == 0) {
    for (size_t i = 0; i + 1 < count; ++i) deltas[i] = 0;
  } else {
    UnpackBits(data + pos + kBlockHeaderBytes, count - 1, width, deltas);
  }
  DeltaZigzagDecode(deltas, count, base, out);
  return kBlockHeaderBytes + packed;
}

}  // namespace

size_t EncodeColumn(const uint64_t* vals, size_t n, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  // Worst case (64-bit deltas, incompressible data): one header plus
  // 8 bytes per delta for each block. Reserving the ceiling keeps the
  // encode loop's appends allocation-bounded up front.
  const size_t num_blocks = (n + kBlockRows - 1) / kBlockRows;
  out->reserve(start + num_blocks * kBlockHeaderBytes + n * 8);
  uint64_t deltas[kBlockRows];
  for (size_t pos = 0; pos < n; pos += kBlockRows) {
    const size_t count = std::min(kBlockRows, n - pos);
    const uint64_t or_mask = DeltaZigzagEncode(vals + pos, count, deltas);
    const int width = BitWidth(or_mask);
    out->push_back(static_cast<uint8_t>(width));
    AppendU64Le(vals[pos], out);
    PackBits(deltas, count - 1, width, out);
  }
  return out->size() - start;
}

size_t DecodeColumn(const uint8_t* data, size_t size, size_t n,
                    uint64_t* out) {
  size_t pos = 0;
  for (size_t done = 0; done < n;) {
    const size_t count = std::min(kBlockRows, n - done);
    const size_t used = DecodeBlock(data, size, pos, count, out + done);
    if (used == 0) return 0;
    pos += used;
    done += count;
  }
  return pos;
}

size_t ColumnCursor::NextBlock(uint64_t* out) {
  if (remaining_ == 0) return 0;
  const size_t count = std::min(kBlockRows, remaining_);
  const size_t used = DecodeBlock(data_, size_, pos_, count, out);
  if (used == 0) {
    remaining_ = 0;  // Malformed input: poison the cursor.
    return 0;
  }
  pos_ += used;
  remaining_ -= count;
  return count;
}

void EncodeFrame(const uint64_t* const* columns, size_t cols, size_t rows,
                 std::vector<uint8_t>* out) {
  out->reserve(out->size() + 4 + 8 + cols * 8);  // Frame header.
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(cols >> (8 * i)));
  }
  AppendU64Le(rows, out);
  const size_t lengths_at = out->size();
  for (size_t c = 0; c < cols; ++c) AppendU64Le(0, out);
  for (size_t c = 0; c < cols; ++c) {
    const size_t len = EncodeColumn(columns[c], rows, out);
    // Back-patch the column's byte length now that it is known.
    for (int i = 0; i < 8; ++i) {
      (*out)[lengths_at + c * 8 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(static_cast<uint64_t>(len) >> (8 * i));
    }
  }
}

bool FrameReader::Init(const uint8_t* data, size_t size) {
  rows_ = 0;
  cursors_.clear();
  if (size < 12) return false;
  uint32_t cols = 0;
  for (int i = 0; i < 4; ++i) cols |= static_cast<uint32_t>(data[i]) << (8 * i);
  const uint64_t rows = ReadU64Le(data + 4);
  const size_t header = 12 + static_cast<size_t>(cols) * 8;
  if (size < header) return false;
  size_t offset = header;
  std::vector<ColumnCursor> cursors;
  cursors.reserve(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    const uint64_t len = ReadU64Le(data + 12 + static_cast<size_t>(c) * 8);
    if (len > size - offset) return false;
    cursors.emplace_back(data + offset, static_cast<size_t>(len),
                         static_cast<size_t>(rows));
    offset += static_cast<size_t>(len);
  }
  if (offset != size) return false;
  rows_ = static_cast<size_t>(rows);
  cursors_ = std::move(cursors);
  return true;
}

size_t FrameReader::NextBlock(uint64_t* out) {
  if (cursors_.empty()) return 0;
  size_t count = 0;
  for (size_t c = 0; c < cursors_.size(); ++c) {
    const size_t got = cursors_[c].NextBlock(out + c * kBlockRows);
    if (c == 0) {
      count = got;
    } else if (got != count) {
      return 0;  // Columns out of sync: malformed frame.
    }
  }
  return count;
}

}  // namespace mwsj::colcodec
