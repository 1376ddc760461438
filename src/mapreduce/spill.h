#ifndef MWSJ_MAPREDUCE_SPILL_H_
#define MWSJ_MAPREDUCE_SPILL_H_

// mwsj-check: spill-budgeted
//
// Shuffle support for the map-reduce engine (DESIGN.md §2.13): budget
// resolution, the columnar spill-run codec bridge, streaming run cursors,
// and the k-way loser tree each reduce task merges its sorted bucket
// column with.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/effects.h"
#include "common/execution_context.h"
#include "io/colcodec.h"
#include "simd/simd.h"

namespace mwsj::spill {

/// Parses an MWSJ_SHUFFLE_BUDGET value: a positive decimal byte count
/// with an optional k/m/g (or K/M/G) binary suffix. Returns 0 — no
/// override — for anything else: empty, zero, negative, trailing
/// characters, or a count whose suffixed byte size does not fit in int64.
inline int64_t ParseShuffleBudget(std::string_view text) {
  const char* const end = text.data() + text.size();
  int64_t v = 0;
  const auto [rest, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || v <= 0) return 0;
  if (rest == end) return v;
  if (rest + 1 != end) return 0;
  int shift = 0;
  switch (*rest) {
    case 'k': case 'K': shift = 10; break;
    case 'm': case 'M': shift = 20; break;
    case 'g': case 'G': shift = 30; break;
    default: return 0;
  }
  if (v > (std::numeric_limits<int64_t>::max() >> shift)) return 0;
  return v << shift;
}

/// The MWSJ_SHUFFLE_BUDGET override, parsed once per process. Unset or
/// unparseable means no override (0).
inline int64_t EnvShuffleBudget() {
  static const int64_t cached = [] {
    const char* env = std::getenv("MWSJ_SHUFFLE_BUDGET");
    return env == nullptr ? int64_t{0} : ParseShuffleBudget(env);
  }();
  return cached;
}

/// The effective shuffle budget for one run: an explicit positive budget
/// wins, an explicit -1 pins unlimited, and 0 inherits the environment
/// override (else unlimited). Returns 0 for "unlimited".
inline int64_t ResolveShuffleBudget(const ExecutionOptions& options) {
  if (options.shuffle_memory_budget > 0) return options.shuffle_memory_budget;
  if (options.shuffle_memory_budget < 0) return 0;
  return EnvShuffleBudget();
}

/// Each mapper chunk owns an equal share of the budget; a chunk whose
/// intermediate bytes exceed its share spills. An unlimited budget (0) is
/// a share no chunk exceeds.
inline int64_t ChunkBudget(int64_t budget, size_t num_chunks) {
  if (budget <= 0) return std::numeric_limits<int64_t>::max();
  if (num_chunks == 0) return budget;
  const int64_t share = budget / static_cast<int64_t>(num_chunks);
  return share > 0 ? share : 1;
}

/// Opt-in trait mapping a value type onto fixed u64 columns so its spill
/// runs compress columnarly (io/colcodec.h). Specializations (RelRect in
/// core/records.h, KnnRouted and KnnCandidate in queries/knn_mr.h) provide:
///
///   static constexpr bool enabled = true;
///   static constexpr size_t kNumColumns = N;
///   static void Scatter(const T& v, uint64_t* cols);  // cols[0..N)
///   static T Gather(const uint64_t* cols);
///
/// Scatter/Gather must be exact inverses bit-for-bit; coordinates go
/// through colcodec::OrderedBitsFromDouble so sorted streams delta-pack
/// well. Types without a specialization spill as raw sorted pair runs —
/// same merge semantics, byte accounting without compression.
template <typename T>
struct SpillColumns {
  static constexpr bool enabled = false;
};

/// Order- and value-preserving u64 bijection for integral shuffle keys
/// (the key column of a spill run).
template <typename K>
inline uint64_t KeyToU64(K k) {
  static_assert(std::is_integral_v<K> && sizeof(K) <= 8);
  return simd::OrderedKeyFromInt(k);
}

template <typename K>
inline K KeyFromU64(uint64_t u) {
  static_assert(std::is_integral_v<K> && sizeof(K) <= 8);
  if constexpr (std::is_signed_v<K>) {
    return static_cast<K>(
        static_cast<int64_t>(u ^ (uint64_t{1} << 63)));
  } else {
    return static_cast<K>(u);
  }
}

/// Whether (K, V) spill runs can be columnar-encoded.
template <typename K, typename V>
inline constexpr bool kEncodable = std::is_integral_v<K> &&
                                   sizeof(K) <= 8 && SpillColumns<V>::enabled;

/// Encodes one sorted bucket of pairs as a columnar frame: the key column
/// first, then the value columns. Only instantiated when kEncodable.
/// `column_scratch` is caller-owned column-major staging, grown to the
/// largest bucket and then reused — the engine threads one scratch through
/// every bucket of every flush attempt, so a flaky-I/O retry or a
/// speculative duplicate flush re-encodes without reallocating the staging
/// (its size rivals the bucket itself).
///
/// MWSJ_DETERMINISTIC: the encoded bytes are part of the spill byte-identity
/// contract — the same sorted bucket must encode to the same frame.
template <typename K, typename V>
MWSJ_DETERMINISTIC void EncodeRun(const std::pair<K, V>* pairs, size_t n,
                                  std::vector<uint64_t>* column_scratch,
                                  std::vector<uint8_t>* out) {
  constexpr size_t kCols = 1 + SpillColumns<V>::kNumColumns;
  // Column-major staging of the whole bucket; bounded by the chunk's
  // budget share that triggered the spill.
  std::vector<uint64_t>& columns = *column_scratch;
  if (columns.size() < kCols * n) columns.resize(kCols * n);
  uint64_t scratch[kCols];
  for (size_t i = 0; i < n; ++i) {
    columns[i] = KeyToU64(pairs[i].first);
    SpillColumns<V>::Scatter(pairs[i].second, scratch);
    for (size_t c = 1; c < kCols; ++c) {
      columns[c * n + i] = scratch[c - 1];
    }
  }
  const uint64_t* col_ptrs[kCols];
  for (size_t c = 0; c < kCols; ++c) col_ptrs[c] = columns.data() + c * n;
  colcodec::EncodeFrame(col_ptrs, kCols, n, out);
}

/// One-shot convenience overload with function-local staging.
template <typename K, typename V>
MWSJ_DETERMINISTIC void EncodeRun(const std::pair<K, V>* pairs, size_t n,
                                  std::vector<uint8_t>* out) {
  // Same bucket-bounded staging as the scratch-threaded overload, owned
  // for one call.
  std::vector<uint64_t> columns;
  EncodeRun(pairs, n, &columns, out);
}

/// Streaming record source over an encoded run: holds one decoded block
/// (≤ colcodec::kBlockRows rows per column) at a time.
template <typename K, typename V>
class EncodedRunCursor {
 public:
  /// False on a malformed frame (never produced by the engine itself).
  bool Init(const uint8_t* data, size_t size) {
    if (!reader_.Init(data, size)) return false;
    if (reader_.cols() != 1 + SpillColumns<V>::kNumColumns) return false;
    block_.resize(reader_.cols() * colcodec::kBlockRows);
    remaining_ = reader_.rows();
    count_ = 0;
    pos_ = 0;
    return Advance();
  }

  bool empty() const { return pos_ >= count_; }

  K key() const { return KeyFromU64<K>(block_[pos_]); }

  /// MWSJ_ALLOC_FREE: per-record merge step — decodes into the buffer that
  /// Init sized once; no allocation per popped record.
  MWSJ_ALLOC_FREE void Pop(K* k, V* v) {
    *k = key();
    uint64_t scratch[64];
    const size_t cols = reader_.cols();
    for (size_t c = 1; c < cols; ++c) {
      scratch[c - 1] = block_[c * colcodec::kBlockRows + pos_];
    }
    *v = SpillColumns<V>::Gather(scratch);
    ++pos_;
    if (pos_ >= count_) (void)Advance();
  }

 private:
  MWSJ_ALLOC_FREE bool Advance() {
    if (remaining_ == 0) {
      count_ = 0;
      pos_ = 0;
      return true;
    }
    count_ = reader_.NextBlock(block_.data());
    pos_ = 0;
    if (count_ == 0) return false;
    remaining_ -= count_;
    return true;
  }

  colcodec::FrameReader reader_;
  std::vector<uint64_t> block_;
  size_t count_ = 0;
  size_t pos_ = 0;
  size_t remaining_ = 0;
};

/// Tournament loser tree over k sorted sources. `beats(a, b)` answers
/// "does source a's current head sort strictly before source b's?" and
/// must treat an exhausted source as +infinity (never beats, always
/// loses). After popping from winner() call Replay(winner) to restore the
/// invariant. O(log k) comparisons per record, independent of skew.
template <typename BeatsFn>
class LoserTree {
 public:
  static constexpr size_t kInvalid = static_cast<size_t>(-1);

  LoserTree(size_t k, BeatsFn beats)
      : k_(k), beats_(std::move(beats)) {
    tree_.assign(k_ > 1 ? k_ : 1, kInvalid);
    // Building by replaying every leaf from an all-empty tree is the
    // classical construction: each replay either parks at the first empty
    // internal node or — with all k-1 slots filled — carries the overall
    // winner to the root. Replay order is immaterial.
    for (size_t s = k_; s-- > 0;) Replay(s);
  }

  size_t winner() const { return winner_; }

  /// MWSJ_ALLOC_FREE: O(log k) pointer walk over the preallocated tree —
  /// runs once per merged record.
  MWSJ_ALLOC_FREE void Replay(size_t s) {
    size_t winner = s;
    for (size_t node = (s + k_) / 2; node >= 1; node /= 2) {
      size_t& slot = tree_[node];
      if (slot == kInvalid) {
        slot = winner;
        return;
      }
      if (beats_(slot, winner)) std::swap(winner, slot);
    }
    winner_ = winner;
  }

 private:
  size_t k_;
  BeatsFn beats_;
  std::vector<size_t> tree_;
  size_t winner_ = kInvalid;
};

}  // namespace mwsj::spill

#endif  // MWSJ_MAPREDUCE_SPILL_H_
