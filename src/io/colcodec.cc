// mwsj-check: spill-budgeted
//
// Block codec implementation: a delta + zigzag transform and an LSB-first
// bitpack that stores and loads whole 64-bit words, all plain scalar code.
// On a little-endian host a word's memcpy lays out its bits exactly as the
// LSB-first byte stream does, so the encoded bytes do not depend on the CPU
// the spill ran on.
#include "io/colcodec.h"

#include <algorithm>
#include <bit>

namespace mwsj::colcodec {

// The word stores and loads below rely on memcpy of a u64 being its
// little-endian byte sequence; the format itself is little-endian.
static_assert(std::endian::native == std::endian::little,
              "colcodec's word-wise bitpack assumes a little-endian host");

namespace {

// Per-block scratch is bounded by kBlockRows, so nothing here grows with
// column length.
constexpr size_t kBlockHeaderBytes = 1 + 8;
constexpr size_t kFrameHeaderBytes = 4 + 8;
// Largest payload of one block: kBlockRows - 1 deltas of 64 bits.
constexpr size_t kMaxPackedBytes = (kBlockRows - 1) * 8;
// Readable bytes UnpackDeltas needs past a payload: a word load at the
// payload's last byte reads 7 more, and a field crossing that word a ninth.
constexpr size_t kLoadPadding = 16;

inline uint64_t WidthMask(int width) {
  return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

inline int BitWidth(uint64_t mask) {
  return mask == 0 ? 0 : 64 - __builtin_clzll(mask);
}

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU64(uint64_t v, uint8_t* p) { std::memcpy(p, &v, sizeof(v)); }

inline size_t PackedBytes(size_t n, int width) {
  return (n * static_cast<size_t>(width) + 7) / 8;
}

// LSB-first bitpack of n values at `width` bits each into exactly
// PackedBytes(n, width) bytes at dst: fills one u64 word at a time and
// stores it whole, then the filled bytes of the last partial word.
void PackBits(const uint64_t* vals, size_t n, int width, uint8_t* dst) {
  if (width == 0) return;
  const uint64_t mask = WidthMask(width);
  uint64_t word = 0;
  int bits = 0;  // Filled low bits of `word`; always < 64 between values.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = vals[i] & mask;
    word |= v << bits;
    bits += width;
    if (bits >= 64) {
      StoreU64(word, dst);
      dst += 8;
      bits -= 64;
      // The high `bits` bits of v that did not fit (none if v ended the
      // word exactly) start the next word.
      word = bits == 0 ? 0 : v >> (width - bits);
    }
  }
  std::memcpy(dst, &word, static_cast<size_t>(bits + 7) / 8);
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

// The pack width of the block vals[0..count): the bit width of the OR of
// its zigzag deltas.
int BlockWidth(const uint64_t* vals, size_t count) {
  uint64_t or_mask = 0;
  for (size_t i = 0; i + 1 < count; ++i) {
    or_mask |= ZigzagEncode(vals[i + 1] - vals[i]);
  }
  return BitWidth(or_mask);
}

// Exact encoded size of vals[0..n): each block's header plus its payload
// at the block's width.
size_t ColumnBytes(const uint64_t* vals, size_t n) {
  size_t bytes = 0;
  for (size_t pos = 0; pos < n; pos += kBlockRows) {
    const size_t count = std::min(kBlockRows, n - pos);
    bytes += kBlockHeaderBytes +
             PackedBytes(count - 1, BlockWidth(vals + pos, count));
  }
  return bytes;
}

// Encodes vals[0..n) into dst, which holds exactly ColumnBytes(vals, n)
// bytes. Returns that count.
size_t WriteColumn(const uint64_t* vals, size_t n, uint8_t* dst) {
  uint8_t* const begin = dst;
  uint64_t deltas[kBlockRows];
  for (size_t pos = 0; pos < n; pos += kBlockRows) {
    const size_t count = std::min(kBlockRows, n - pos);
    const int width = BitWidth(DeltaZigzagEncode(vals + pos, count, deltas));
    dst[0] = static_cast<uint8_t>(width);
    StoreU64(vals[pos], dst + 1);
    PackBits(deltas, count - 1, width, dst + kBlockHeaderBytes);
    dst += kBlockHeaderBytes + PackedBytes(count - 1, width);
  }
  return static_cast<size_t>(dst - begin);
}

// Unpacks n width-bit zigzag deltas from `data` and writes their running
// sum from `base` to out[0..n). Every field is one unaligned word load at
// its byte offset, shifted and masked; `data` must be readable for
// kLoadPadding bytes past the payload.
void UnpackDeltas(const uint8_t* data, size_t n, int width, uint64_t base,
                  uint64_t* out) {
  const uint64_t mask = WidthMask(width);
  const size_t step = static_cast<size_t>(width);
  size_t bitpos = 0;
  if (width <= 56) {
    // A field starts at most 7 bits into its byte, so 7 + 56 bits fit the
    // one word.
    for (size_t i = 0; i < n; ++i, bitpos += step) {
      const uint64_t z = (LoadU64(data + (bitpos >> 3)) >> (bitpos & 7)) & mask;
      base += ZigzagDecode(z);
      out[i] = base;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i, bitpos += step) {
    const uint8_t* p = data + (bitpos >> 3);
    const unsigned shift = static_cast<unsigned>(bitpos & 7);
    // A field of more than 56 bits can cross the word: its top bits come
    // from the ninth byte (shifted by 64 - shift, in two steps so a zero
    // shift stays defined).
    const uint64_t z =
        ((LoadU64(p) >> shift) | ((uint64_t{p[8]} << 1) << (63 - shift))) &
        mask;
    base += ZigzagDecode(z);
    out[i] = base;
  }
}

// Decodes one block of `count` values starting at data[pos]; returns the
// bytes consumed or 0 on truncation.
size_t DecodeBlock(const uint8_t* data, size_t size, size_t pos, size_t count,
                   uint64_t* out) {
  if (pos + kBlockHeaderBytes > size) return 0;
  const int width = data[pos];
  if (width > 64) return 0;
  const uint64_t base = LoadU64(data + pos + 1);
  const size_t packed = PackedBytes(count - 1, width);
  if (pos + kBlockHeaderBytes + packed > size) return 0;
  out[0] = base;
  if (width == 0) {
    std::fill(out + 1, out + count, base);
  } else {
    // The word loads run on a zero-padded copy of the payload, so they
    // never read past the column.
    uint8_t padded[kMaxPackedBytes + kLoadPadding];
    std::memcpy(padded, data + pos + kBlockHeaderBytes, packed);
    std::memset(padded + packed, 0, kLoadPadding);
    UnpackDeltas(padded, count - 1, width, base, out + 1);
  }
  return kBlockHeaderBytes + packed;
}

}  // namespace

size_t EncodeColumn(const uint64_t* vals, size_t n, std::vector<uint8_t>* out) {
  const size_t bytes = ColumnBytes(vals, n);
  const size_t start = out->size();
  out->resize(start + bytes);
  return WriteColumn(vals, n, out->data() + start);
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
  // Size the whole frame first, so it is allocated once and exactly.
  size_t total = kFrameHeaderBytes + cols * 8;
  for (size_t c = 0; c < cols; ++c) total += ColumnBytes(columns[c], rows);
  const size_t start = out->size();
  out->resize(start + total);
  uint8_t* const frame = out->data() + start;
  const uint32_t cols32 = static_cast<uint32_t>(cols);
  std::memcpy(frame, &cols32, sizeof(cols32));
  StoreU64(rows, frame + 4);
  uint8_t* payload = frame + kFrameHeaderBytes + cols * 8;
  for (size_t c = 0; c < cols; ++c) {
    const size_t len = WriteColumn(columns[c], rows, payload);
    StoreU64(len, frame + kFrameHeaderBytes + c * 8);
    payload += len;
  }
}

bool FrameReader::Init(const uint8_t* data, size_t size) {
  rows_ = 0;
  cursors_.clear();
  if (size < kFrameHeaderBytes) return false;
  uint32_t cols = 0;
  for (int i = 0; i < 4; ++i) cols |= static_cast<uint32_t>(data[i]) << (8 * i);
  const uint64_t rows = LoadU64(data + 4);
  const size_t header = kFrameHeaderBytes + static_cast<size_t>(cols) * 8;
  if (size < header) return false;
  size_t offset = header;
  std::vector<ColumnCursor> cursors;
  cursors.reserve(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    const uint64_t len =
        LoadU64(data + kFrameHeaderBytes + static_cast<size_t>(c) * 8);
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
