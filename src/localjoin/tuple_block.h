#ifndef MWSJ_LOCALJOIN_TUPLE_BLOCK_H_
#define MWSJ_LOCALJOIN_TUPLE_BLOCK_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <span>
#include <vector>

namespace mwsj {

/// An output tuple of a multi-way join: one rectangle id per query
/// relation, index-aligned with Query::relation_names(). It is a view of
/// one row of a TupleBlock, valid while the block is not modified.
using IdTuple = std::span<const int64_t>;

/// Join output tuples as fixed-stride rows: `arity()` ids per row, all
/// rows in one contiguous buffer. Iterating a block yields its rows as
/// IdTuple views; a block holds no per-row heap object, so building,
/// sorting and freeing it costs a few large allocations however many rows
/// it has.
///
/// A default-constructed block has arity 0 and takes the length of the
/// first row appended to it. Two blocks are equal when they hold the same
/// rows; every empty block equals every other.
class TupleBlock {
 public:
  /// Random-access iterator over the rows; dereferencing yields a view.
  class Iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = IdTuple;
    using reference = IdTuple;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const int64_t* row, size_t arity) : row_(row), arity_(arity) {}

    IdTuple operator*() const { return IdTuple(row_, arity_); }
    IdTuple operator[](difference_type n) const { return *(*this + n); }
    Iterator& operator++() { return *this += 1; }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    Iterator& operator--() { return *this -= 1; }
    Iterator operator--(int) {
      Iterator before = *this;
      --*this;
      return before;
    }
    Iterator& operator+=(difference_type n) {
      row_ += n * static_cast<difference_type>(arity_);
      return *this;
    }
    Iterator& operator-=(difference_type n) { return *this += -n; }
    friend Iterator operator+(Iterator it, difference_type n) {
      return it += n;
    }
    friend Iterator operator+(difference_type n, Iterator it) {
      return it += n;
    }
    friend Iterator operator-(Iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return a.arity_ == 0
                 ? 0
                 : (a.row_ - b.row_) / static_cast<difference_type>(a.arity_);
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.row_ == b.row_;
    }
    friend std::strong_ordering operator<=>(const Iterator& a,
                                            const Iterator& b) {
      return std::compare_three_way()(a.row_, b.row_);
    }

   private:
    const int64_t* row_ = nullptr;
    size_t arity_ = 0;
  };
  using value_type = IdTuple;
  using iterator = Iterator;
  using const_iterator = Iterator;

  TupleBlock() = default;
  explicit TupleBlock(size_t arity) : arity_(arity) {}
  /// Rows from a brace list, e.g. `TupleBlock{{0, 1}, {2, 3}}`; every row
  /// must have the first row's length.
  TupleBlock(std::initializer_list<std::initializer_list<int64_t>> rows);

  size_t arity() const { return arity_; }
  size_t size() const { return arity_ == 0 ? 0 : ids_.size() / arity_; }
  bool empty() const { return ids_.empty(); }
  IdTuple operator[](size_t i) const {
    return IdTuple(ids_.data() + i * arity_, arity_);
  }
  Iterator begin() const { return Iterator(ids_.data(), arity_); }
  Iterator end() const { return Iterator(ids_.data() + ids_.size(), arity_); }

  void reserve(size_t rows) { ids_.reserve(rows * arity_); }
  void clear() { ids_.clear(); }

  /// Appends one row. Its length must be the block's arity (or set it, on
  /// a block of arity 0).
  void Append(IdTuple row);
  /// Appends every row of `other`, whose arity must match (or set it, on
  /// a block of arity 0); an empty `other` is a no-op.
  void Append(const TupleBlock& other);
  /// Appends a zero-filled row to a block of known arity and returns it for
  /// the caller to fill.
  std::span<int64_t> AppendRow() {
    ids_.resize(ids_.size() + arity_);
    return std::span<int64_t>(ids_.data() + ids_.size() - arity_, arity_);
  }
  /// Drops the rows for which `drop(row)` is true, keeping the others in
  /// order.
  template <typename Pred>
  void EraseIf(Pred drop);

  friend bool operator==(const TupleBlock& a, const TupleBlock& b) {
    return a.ids_ == b.ids_ && (a.arity_ == b.arity_ || a.ids_.empty());
  }

 private:
  friend void SortTuples(TupleBlock* tuples);

  size_t arity_ = 0;
  std::vector<int64_t> ids_;
};

/// Sorts the rows lexicographically in place: the canonical order of every
/// algorithm's output. Ids are input positions, so a row's offsets from
/// its columns' minimum ids usually fit one 64-bit key together (three
/// columns of up to 2^21 distinct ids do); the keys are then sorted by
/// stable counting passes over digits of at most 12 bits (LSD radix) and
/// unpacked.
/// Rows whose column ranges need more than 64 bits together, blocks of a
/// few rows and blocks too long for 32-bit counts are sorted by row
/// comparison instead. Scratch memory is O(rows) either way.
void SortTuples(TupleBlock* tuples);

/// gtest printer: `{ {0, 1}, {2, 3} }`.
void PrintTo(const TupleBlock& tuples, std::ostream* os);

template <typename Pred>
void TupleBlock::EraseIf(Pred drop) {
  size_t kept = 0;
  const size_t rows = size();
  for (size_t i = 0; i < rows; ++i) {
    const IdTuple row = (*this)[i];
    if (drop(row)) continue;
    if (kept != i) {
      std::copy(row.begin(), row.end(), ids_.begin() + kept * arity_);
    }
    ++kept;
  }
  ids_.resize(kept * arity_);
}

}  // namespace mwsj

#endif  // MWSJ_LOCALJOIN_TUPLE_BLOCK_H_
