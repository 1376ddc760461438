#include "localjoin/tuple_block.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <ostream>

namespace mwsj {

namespace {

// A block of fewer rows than this sorts by comparison: the radix passes'
// fixed cost (their digit histograms) would dominate.
constexpr size_t kMinRadixRows = 64;
// Widest radix digit: 4096 buckets keep a pass's histogram and its
// scatter targets in cache. Keys take as few passes as this allows, with
// the bits spread evenly over them.
constexpr int kMaxDigitBits = 12;

[[noreturn]] void ArityMismatch(size_t block, size_t row) {
  std::fprintf(stderr, "TupleBlock: appending arity %zu to arity %zu\n", row,
               block);
  std::abort();
}

bool RowsSorted(const int64_t* ids, size_t rows, size_t m) {
  for (size_t i = 1; i < rows; ++i) {
    const int64_t* a = ids + (i - 1) * m;
    const int64_t* b = ids + i * m;
    if (std::lexicographical_compare(b, b + m, a, a + m)) return false;
  }
  return true;
}

// Sorts a permutation of the rows by comparison, then gathers them.
void ComparisonSort(std::vector<int64_t>* ids, size_t rows, size_t m) {
  const int64_t* src = ids->data();
  std::vector<size_t> order(rows);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [src, m](size_t a, size_t b) {
    return std::lexicographical_compare(src + a * m, src + a * m + m,
                                        src + b * m, src + b * m + m);
  });
  std::vector<int64_t> sorted(ids->size());
  for (size_t i = 0; i < rows; ++i) {
    std::memcpy(sorted.data() + i * m, src + order[i] * m,
                m * sizeof(int64_t));
  }
  ids->swap(sorted);
}

// Shifts and masks that accept a 64-bit width (one column of a one-column
// key), where the plain operators would be undefined.
uint64_t ShiftLeft(uint64_t v, int bits) { return bits >= 64 ? 0 : v << bits; }
uint64_t ShiftRight(uint64_t v, int bits) { return bits >= 64 ? 0 : v >> bits; }
uint64_t LowBits(uint64_t v, int bits) {
  return bits >= 64 ? v : v & ((uint64_t{1} << bits) - 1);
}

// Packs every row into one key, column c's offset id - lo[c] in bits[c]
// bits and the first column most significant, so keys order as rows do;
// sorts the keys with stable counting passes over digits of at most 12
// bits, least significant first (LSD radix), skipping digits every key
// shares; and unpacks them back into the rows. The caller guarantees the
// widths sum to between 1 and 64 (an unsorted block has two distinct
// rows, so some column varies).
void PackedRadixSort(std::vector<int64_t>* ids, size_t rows, size_t m,
                     const std::vector<int64_t>& lo,
                     const std::vector<int>& bits, int total_bits) {
  int64_t* const data = ids->data();
  std::vector<uint64_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) {
    uint64_t key = 0;
    for (size_t c = 0; c < m; ++c) {
      key = ShiftLeft(key, bits[c]) | (static_cast<uint64_t>(data[i * m + c]) -
                                       static_cast<uint64_t>(lo[c]));
    }
    keys[i] = key;
  }

  const int passes = (total_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (total_bits + passes - 1) / passes;
  const size_t buckets = size_t{1} << digit_bits;
  const uint64_t digit_mask = buckets - 1;
  std::vector<uint32_t> counts(static_cast<size_t>(passes) * buckets, 0);
  for (const uint64_t key : keys) {
    for (int p = 0; p < passes; ++p) {
      ++counts[static_cast<size_t>(p) * buckets +
               ((key >> (p * digit_bits)) & digit_mask)];
    }
  }
  std::vector<uint64_t> scratch(rows);
  uint64_t* src = keys.data();
  uint64_t* dst = scratch.data();
  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit_bits;
    uint32_t* c = counts.data() + static_cast<size_t>(p) * buckets;
    if (c[(src[0] >> shift) & digit_mask] == rows) continue;
    uint32_t sum = 0;
    for (size_t d = 0; d < buckets; ++d) {
      const uint32_t n = c[d];
      c[d] = sum;
      sum += n;
    }
    for (size_t i = 0; i < rows; ++i) {
      const uint64_t key = src[i];
      dst[c[(key >> shift) & digit_mask]++] = key;
    }
    std::swap(src, dst);
  }

  for (size_t i = 0; i < rows; ++i) {
    uint64_t key = src[i];
    for (size_t c = m; c-- > 0;) {
      data[i * m + c] = static_cast<int64_t>(static_cast<uint64_t>(lo[c]) +
                                             LowBits(key, bits[c]));
      key = ShiftRight(key, bits[c]);
    }
  }
}

}  // namespace

TupleBlock::TupleBlock(
    std::initializer_list<std::initializer_list<int64_t>> rows) {
  if (rows.size() == 0) return;
  arity_ = rows.begin()->size();
  ids_.reserve(rows.size() * arity_);
  for (const auto& row : rows) Append(IdTuple(row.begin(), row.size()));
}

void TupleBlock::Append(IdTuple row) {
  if (arity_ == 0 && ids_.empty()) arity_ = row.size();
  if (row.size() != arity_) ArityMismatch(arity_, row.size());
  ids_.insert(ids_.end(), row.begin(), row.end());
}

void TupleBlock::Append(const TupleBlock& other) {
  if (other.empty()) return;
  if (arity_ == 0 && ids_.empty()) arity_ = other.arity_;
  if (other.arity_ != arity_) ArityMismatch(arity_, other.arity_);
  ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
}

void SortTuples(TupleBlock* tuples) {
  const size_t m = tuples->arity_;
  const size_t rows = tuples->size();
  std::vector<int64_t>* ids = &tuples->ids_;
  if (rows < 2 || RowsSorted(ids->data(), rows, m)) return;
  if (rows < kMinRadixRows || rows >= std::numeric_limits<uint32_t>::max()) {
    ComparisonSort(ids, rows, m);
    return;
  }
  std::vector<int64_t> lo(m);
  std::vector<int> bits(m);
  int total_bits = 0;
  for (size_t col = 0; col < m; ++col) {
    int64_t min = (*ids)[col];
    int64_t max = min;
    for (size_t i = 1; i < rows; ++i) {
      const int64_t v = (*ids)[i * m + col];
      min = std::min(min, v);
      max = std::max(max, v);
    }
    lo[col] = min;
    // Unsigned difference: exact for any pair of int64 values.
    bits[col] = std::bit_width(static_cast<uint64_t>(max) -
                               static_cast<uint64_t>(min));
    total_bits += bits[col];
  }
  if (total_bits > 64) {
    ComparisonSort(ids, rows, m);
    return;
  }
  PackedRadixSort(ids, rows, m, lo, bits, total_bits);
}

void PrintTo(const TupleBlock& tuples, std::ostream* os) {
  *os << "{";
  const char* sep = " ";
  for (const IdTuple row : tuples) {
    *os << sep << "{";
    for (size_t i = 0; i < row.size(); ++i) *os << (i > 0 ? ", " : "") << row[i];
    *os << "}";
    sep = ", ";
  }
  *os << (tuples.empty() ? "}" : " }");
}

}  // namespace mwsj
