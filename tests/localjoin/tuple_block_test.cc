// TupleBlock: the row view, equality, appends and filtering, and
// SortTuples against std::sort over the same rows as nested vectors.

#include "localjoin/tuple_block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/random.h"

namespace mwsj {
namespace {

using Rows = std::vector<std::vector<int64_t>>;

Rows ToRows(const TupleBlock& block) {
  Rows rows;
  for (const IdTuple row : block) rows.emplace_back(row.begin(), row.end());
  return rows;
}

TupleBlock FromRows(size_t arity, const Rows& rows) {
  TupleBlock block(arity);
  for (const std::vector<int64_t>& row : rows) block.Append(row);
  return block;
}

// Sorts `rows` both ways and checks that the block holds std::sort's order.
void ExpectSortMatchesStdSort(size_t arity, Rows rows, const char* what) {
  TupleBlock block = FromRows(arity, rows);
  SortTuples(&block);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(ToRows(block), rows) << what << ", arity " << arity << ", "
                                 << rows.size() << " rows";
  EXPECT_EQ(block.arity(), arity);
}

// `count` rows of `arity` ids, each drawn from [lo, lo + width).
Rows RandomRows(Rng& rng, size_t arity, size_t count, int64_t lo,
                int64_t width) {
  Rows rows(count, std::vector<int64_t>(arity));
  for (auto& row : rows) {
    for (int64_t& id : row) id = lo + rng.UniformInt(0, width - 1);
  }
  return rows;
}

TEST(TupleBlockTest, RowViewIteratesRowsInOrder) {
  const TupleBlock block = {{3, 1, 4}, {1, 5, 9}, {2, 6, 5}};
  ASSERT_EQ(block.arity(), 3u);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_FALSE(block.empty());
  const IdTuple second = block[1];
  EXPECT_EQ(std::vector<int64_t>(second.begin(), second.end()),
            (std::vector<int64_t>{1, 5, 9}));
  EXPECT_EQ(ToRows(block), (Rows{{3, 1, 4}, {1, 5, 9}, {2, 6, 5}}));

  // Random access over rows.
  TupleBlock::Iterator it = block.begin();
  EXPECT_EQ(block.end() - it, 3);
  EXPECT_EQ(it[2][0], 2);
  it += 2;
  EXPECT_EQ((*it)[2], 5);
  --it;
  EXPECT_EQ((*it)[0], 1);
  EXPECT_TRUE(block.begin() < it);
  EXPECT_EQ(it + 2, block.end());
  EXPECT_EQ(std::distance(block.begin(), block.end()), 3);
}

TEST(TupleBlockTest, EqualityComparesRowsAndArity) {
  EXPECT_EQ((TupleBlock{{1, 2}, {3, 4}}), (TupleBlock{{1, 2}, {3, 4}}));
  EXPECT_NE((TupleBlock{{1, 2}, {3, 4}}), (TupleBlock{{1, 2}, {3, 5}}));
  EXPECT_NE((TupleBlock{{1, 2}, {3, 4}}), (TupleBlock{{3, 4}, {1, 2}}));
  EXPECT_NE((TupleBlock{{1, 2}}), (TupleBlock{{1, 2}, {1, 2}}));
  // The same ids cut into rows of another length are other tuples.
  EXPECT_NE((TupleBlock{{1, 2, 3, 4, 5, 6}}),
            (TupleBlock{{1, 2, 3}, {4, 5, 6}}));
  // Empty blocks are equal whatever their arity.
  EXPECT_EQ(TupleBlock(), TupleBlock(3));
  EXPECT_EQ(TupleBlock(2), TupleBlock(3));
  EXPECT_NE(TupleBlock(3), (TupleBlock{{1, 2, 3}}));
}

TEST(TupleBlockTest, AppendsRowsAndBlocks) {
  TupleBlock block;
  const int64_t first[] = {7, 8};
  block.Append(first);  // Arity 0 takes the first row's length.
  EXPECT_EQ(block.arity(), 2u);
  const std::span<int64_t> row = block.AppendRow();
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 0);
  row[0] = 9;
  row[1] = 10;
  block.Append(TupleBlock{{11, 12}, {13, 14}});
  block.Append(TupleBlock());  // An empty block of any arity is a no-op.
  block.Append(TupleBlock(5));
  EXPECT_EQ(block, (TupleBlock{{7, 8}, {9, 10}, {11, 12}, {13, 14}}));

  TupleBlock empty;
  empty.Append(block);  // Arity 0 takes the other block's arity.
  EXPECT_EQ(empty.arity(), 2u);
  EXPECT_EQ(empty, block);
  empty.clear();
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
}

TEST(TupleBlockDeathTest, AppendingAnotherArityAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TupleBlock block(3);
  const int64_t row[] = {1, 2};
  EXPECT_DEATH(block.Append(row), "arity");
  EXPECT_DEATH(block.Append(TupleBlock{{1, 2, 3, 4}}), "arity");
}

// The runner's distinct-ids filter: drop every row binding one id twice.
TEST(TupleBlockTest, EraseIfKeepsTheOtherRowsInOrder) {
  TupleBlock block = {{1, 2, 3}, {4, 4, 5}, {6, 7, 8}, {9, 1, 9},
                      {2, 3, 4}, {0, 0, 0}, {5, 6, 7}};
  block.EraseIf([](IdTuple t) {
    for (size_t i = 0; i < t.size(); ++i) {
      for (size_t j = i + 1; j < t.size(); ++j) {
        if (t[i] == t[j]) return true;
      }
    }
    return false;
  });
  EXPECT_EQ(block, (TupleBlock{{1, 2, 3}, {6, 7, 8}, {2, 3, 4}, {5, 6, 7}}));

  block.EraseIf([](IdTuple) { return true; });
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.arity(), 3u);
}

TEST(TupleBlockTest, PrintsRows) {
  std::ostringstream os;
  PrintTo(TupleBlock{{1, -2}, {3, 4}}, &os);
  EXPECT_EQ(os.str(), "{ {1, -2}, {3, 4} }");
  std::ostringstream empty;
  PrintTo(TupleBlock(), &empty);
  EXPECT_EQ(empty.str(), "{}");
}

TEST(SortTuplesTest, EmptyAndOneRowBlocks) {
  TupleBlock empty(3);
  SortTuples(&empty);
  EXPECT_TRUE(empty.empty());
  TupleBlock unset;
  SortTuples(&unset);
  EXPECT_TRUE(unset.empty());
  TupleBlock one = {{5, -1, 3}};
  SortTuples(&one);
  EXPECT_EQ(one, (TupleBlock{{5, -1, 3}}));
}

// Random blocks of arity 1-7 on both sides of the comparison/radix row
// threshold, with ids from a narrow range (many ties and duplicate rows)
// and a range near the row count (the shape of join output).
TEST(SortTuplesTest, MatchesStdSortOnRandomBlocks) {
  Rng rng(19);
  for (size_t arity = 1; arity <= 7; ++arity) {
    for (size_t count : {2, 3, 63, 64, 65, 500, 5000}) {
      ExpectSortMatchesStdSort(arity, RandomRows(rng, arity, count, 0, 3),
                               "ties");
      ExpectSortMatchesStdSort(
          arity,
          RandomRows(rng, arity, count, 0, static_cast<int64_t>(count)),
          "dense");
    }
  }
}

TEST(SortTuplesTest, DuplicateRowsStayAdjacent) {
  Rng rng(23);
  Rows rows = RandomRows(rng, 3, 300, 0, 1000);
  const Rows copy = rows;
  rows.insert(rows.end(), copy.begin(), copy.end());
  rows.insert(rows.end(), copy.begin(), copy.begin() + 100);
  ExpectSortMatchesStdSort(3, rows, "duplicates");
  ExpectSortMatchesStdSort(2, Rows(1000, {4, 2}), "all equal");
}

TEST(SortTuplesTest, SortedAndReversedInputs) {
  Rng rng(29);
  Rows rows = RandomRows(rng, 3, 2000, 0, 500);
  std::sort(rows.begin(), rows.end());
  ExpectSortMatchesStdSort(3, rows, "sorted");
  std::reverse(rows.begin(), rows.end());
  ExpectSortMatchesStdSort(3, rows, "reversed");
}

// Rows whose column ranges need more than 64 bits together take the
// comparison fallback; up to 64 they are packed into one radix key, with
// negative ids ordered before positive ones.
TEST(SortTuplesTest, WideAndNegativeIdRangesMatchStdSort) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  Rng rng(31);
  for (size_t arity = 1; arity <= 7; ++arity) {
    // 41 bits a column: one column packs, two or more do not.
    ExpectSortMatchesStdSort(
        arity, RandomRows(rng, arity, 3000, -(int64_t{1} << 40),
                          int64_t{1} << 41),
        "wide");
    // Narrow except the last column, which spans int64 (64 bits alone).
    Rows rows = RandomRows(rng, arity, 3000, -5, 10);
    for (auto& row : rows) {
      row.back() = static_cast<int64_t>(rng.Next());
    }
    rows[0].back() = lo;
    rows[1].back() = hi;
    ExpectSortMatchesStdSort(arity, rows, "full int64 last column");
    // Negative but narrow: packed.
    ExpectSortMatchesStdSort(arity, RandomRows(rng, arity, 3000, -1500, 3000),
                             "negative dense");
  }
  // Two 32-bit columns fill a key exactly; one more bit does not fit.
  Rows exact = RandomRows(rng, 2, 3000, 0, int64_t{1} << 32);
  exact[0] = {0, 0};
  exact[1] = {(int64_t{1} << 32) - 1, (int64_t{1} << 32) - 1};
  ExpectSortMatchesStdSort(2, exact, "64 bits");
  Rows over = RandomRows(rng, 2, 3000, 0, int64_t{1} << 32);
  over[0] = {0, 0};
  over[1] = {(int64_t{1} << 32) - 1, int64_t{1} << 32};
  ExpectSortMatchesStdSort(2, over, "65 bits");
}

}  // namespace
}  // namespace mwsj
