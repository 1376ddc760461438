// MWSJ_SHUFFLE_BUDGET parsing (spill::ParseShuffleBudget): a positive byte
// count with an optional binary k/m/g suffix, and 0 ("no override") for
// every other input, including a suffixed count that would overflow int64.

#include <cstdint>
#include <limits>

#include "gtest/gtest.h"
#include "mapreduce/spill.h"

namespace mwsj::spill {
namespace {

TEST(ShuffleBudgetTest, ParsesPlainAndSuffixedCounts) {
  EXPECT_EQ(ParseShuffleBudget("1"), 1);
  EXPECT_EQ(ParseShuffleBudget("4096"), 4096);
  EXPECT_EQ(ParseShuffleBudget("4k"), 4 << 10);
  EXPECT_EQ(ParseShuffleBudget("4K"), 4 << 10);
  EXPECT_EQ(ParseShuffleBudget("16m"), int64_t{16} << 20);
  EXPECT_EQ(ParseShuffleBudget("64M"), int64_t{64} << 20);
  EXPECT_EQ(ParseShuffleBudget("3g"), int64_t{3} << 30);
  EXPECT_EQ(ParseShuffleBudget("2G"), int64_t{2} << 30);
  EXPECT_EQ(ParseShuffleBudget("9223372036854775807"),
            std::numeric_limits<int64_t>::max());
  // The largest count each suffix still fits.
  EXPECT_EQ(ParseShuffleBudget("8589934591g"),
            int64_t{8589934591} << 30);
}

TEST(ShuffleBudgetTest, RejectsZeroNegativeAndJunk) {
  for (const char* text :
       {"", "0", "0k", "-1", "-4k", "k", "4x", "4kb", "4 k", "4k ", "1.5m",
        "abc", "9223372036854775808"}) {
    EXPECT_EQ(ParseShuffleBudget(text), 0) << "'" << text << "'";
  }
}

TEST(ShuffleBudgetTest, RejectsCountsWhoseSuffixOverflows) {
  // 2^33 g is 2^63 bytes: one past INT64_MAX (a wrapping shift made it
  // INT64_MIN). 2^34 + 1 g wrapped to exactly 1 GiB.
  EXPECT_EQ(ParseShuffleBudget("8589934592g"), 0);
  EXPECT_EQ(ParseShuffleBudget("17179869185g"), 0);
  EXPECT_EQ(ParseShuffleBudget("9007199254740992k"), 0);
  EXPECT_EQ(ParseShuffleBudget("8796093022208m"), 0);
  EXPECT_EQ(ParseShuffleBudget("9223372036854775807k"), 0);
}

}  // namespace
}  // namespace mwsj::spill
