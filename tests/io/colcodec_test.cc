// Columnar spill-codec tests: bijective double<->u64 ordered bits,
// randomized encode/decode round trips (single-row runs, short and
// block-boundary lengths, >2^20-row columns) and malformed-input rejection.

#include "io/colcodec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"

namespace mwsj::colcodec {
namespace {

// NaN-free canonical doubles: the ordered-bits transform is bijective on
// all bit patterns, but rectangle coordinates are ordinary finite values;
// the property tests draw from those plus the signed-zero / infinity
// edge cases.
std::vector<double> InterestingDoubles() {
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          0.5,
          -0.5,
          1e-300,
          -1e-300,
          1e300,
          -1e300,
          std::numeric_limits<double>::min(),
          -std::numeric_limits<double>::min(),
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::lowest(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
}

TEST(OrderedBitsTest, RoundTripsExactBitPatterns) {
  for (const double d : InterestingDoubles()) {
    const uint64_t key = OrderedBitsFromDouble(d);
    const double back = DoubleFromOrderedBits(key);
    uint64_t d_bits = 0;
    uint64_t back_bits = 0;
    std::memcpy(&d_bits, &d, 8);
    std::memcpy(&back_bits, &back, 8);
    EXPECT_EQ(d_bits, back_bits) << "value " << d;
  }
  // -0.0 and +0.0 must stay distinguishable (bijective: the map never
  // canonicalizes a signed zero).
  EXPECT_NE(OrderedBitsFromDouble(0.0), OrderedBitsFromDouble(-0.0));
}

TEST(OrderedBitsTest, PreservesOrderOnFiniteValues) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.Uniform(-1e6, 1e6));
  for (const double d : InterestingDoubles()) {
    if (std::isfinite(d) || std::isinf(d)) values.push_back(d);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      if (values[i] < values[j]) {
        EXPECT_LT(OrderedBitsFromDouble(values[i]),
                  OrderedBitsFromDouble(values[j]))
            << values[i] << " vs " << values[j];
      }
    }
  }
}

std::vector<uint64_t> RandomColumn(uint64_t seed, size_t n, int shape) {
  Rng rng(seed);
  std::vector<uint64_t> vals(n);
  uint64_t acc = rng.Next();
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // Sorted-ish: small increments (the spill key column).
        acc += rng.Next() % 1000;
        vals[i] = acc;
        break;
      case 1:  // Constant runs.
        if (rng.Next() % 7 == 0) acc = rng.Next();
        vals[i] = acc;
        break;
      case 2:  // Ordered doubles from a clustered coordinate stream.
        vals[i] = OrderedBitsFromDouble(
            std::floor(rng.Uniform(0, 1e5)) + rng.Uniform(0, 1.0));
        break;
      default:  // Full-entropy bits.
        vals[i] = rng.Next();
        break;
    }
  }
  return vals;
}

TEST(ColCodecTest, ColumnRoundTripsAcrossLengthsAndShapes) {
  // Lengths cover short columns (a handful of deltas) and straddle every
  // block boundary: empty, single row, one block, one block +/- 1, several
  // blocks with a partial tail.
  const size_t lengths[] = {0,   1,   2,   3,   4,   5,   8,   9,   255,
                            256, 257, 511, 512, 513, 1000, 3 * 256 + 17};
  for (const size_t n : lengths) {
    for (int shape = 0; shape < 4; ++shape) {
      const std::vector<uint64_t> vals =
          RandomColumn(1000 + n * 7 + static_cast<uint64_t>(shape), n, shape);
      std::vector<uint8_t> buf;
      const size_t written = EncodeColumn(vals.data(), n, &buf);
      EXPECT_EQ(written, buf.size());
      std::vector<uint64_t> out(n + 1, 0xdeadbeefdeadbeefull);
      const size_t consumed = DecodeColumn(buf.data(), buf.size(), n,
                                           out.data());
      ASSERT_EQ(consumed, buf.size()) << "n=" << n << " shape=" << shape;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], vals[i]) << "n=" << n << " shape=" << shape
                                   << " i=" << i;
      }
      EXPECT_EQ(out[n], 0xdeadbeefdeadbeefull);  // No overrun.
    }
  }
}

TEST(ColCodecTest, LargeColumnRoundTrips) {
  // > 2^20 rows: thousands of blocks, mixed content.
  const size_t n = (1u << 20) + 321;
  std::vector<uint64_t> vals = RandomColumn(42, n, 0);
  for (size_t i = 0; i < n; i += 97) vals[i] = i % 3 == 0 ? 0 : ~vals[i];
  std::vector<uint8_t> buf;
  EncodeColumn(vals.data(), n, &buf);
  std::vector<uint64_t> out(n);
  ASSERT_EQ(DecodeColumn(buf.data(), buf.size(), n, out.data()), buf.size());
  EXPECT_EQ(out, vals);
}

TEST(ColCodecTest, BlockBytesMatchTheDocumentedLayout) {
  // {10, 12, 11, 11}: deltas +2, -1, 0 zigzag to 4, 1, 0 (OR 5, width 3);
  // packed LSB-first as 100 001 000 -> 0x0C 0x00. Spilled bytes must not
  // depend on the build or the CPU.
  const std::vector<uint64_t> vals = {10, 12, 11, 11};
  std::vector<uint8_t> buf;
  EncodeColumn(vals.data(), vals.size(), &buf);
  const std::vector<uint8_t> expected = {3,  10, 0, 0, 0,   0,
                                         0,  0,  0, 0x0C, 0x00};
  EXPECT_EQ(buf, expected);
}

TEST(ColCodecTest, SortedStreamsCompress) {
  // The design target: a sorted ordered-bits coordinate stream should
  // pack to a fraction of its raw 8 bytes/value.
  const size_t n = 1 << 16;
  Rng rng(9);
  std::vector<double> coords(n);
  for (size_t i = 0; i < n; ++i) coords[i] = rng.Uniform(0, 1e5);
  std::sort(coords.begin(), coords.end());
  std::vector<uint64_t> vals(n);
  for (size_t i = 0; i < n; ++i) vals[i] = OrderedBitsFromDouble(coords[i]);
  std::vector<uint8_t> buf;
  EncodeColumn(vals.data(), n, &buf);
  EXPECT_LT(buf.size(), n * 8 * 3 / 4) << "sorted stream failed to compress";
}

TEST(ColCodecTest, DecodeRejectsMalformedInput) {
  const std::vector<uint64_t> vals = RandomColumn(5, 600, 0);
  std::vector<uint8_t> buf;
  EncodeColumn(vals.data(), vals.size(), &buf);
  std::vector<uint64_t> out(vals.size());
  // Truncations at every structural boundary: empty, inside the first
  // block header, inside packed payload, one byte short.
  for (const size_t cut : {size_t{0}, size_t{4}, buf.size() / 2,
                           buf.size() - 1}) {
    EXPECT_EQ(DecodeColumn(buf.data(), cut, vals.size(), out.data()),
              size_t{0})
        << "cut=" << cut;
  }
  // Corrupt width byte (> 64).
  std::vector<uint8_t> corrupt = buf;
  corrupt[0] = 200;
  EXPECT_EQ(DecodeColumn(corrupt.data(), corrupt.size(), vals.size(),
                         out.data()),
            size_t{0});
}

TEST(ColCodecTest, FrameRoundTripsMultipleColumns) {
  const size_t n = 2 * 256 + 77;
  const size_t cols = 5;
  std::vector<std::vector<uint64_t>> columns;
  std::vector<const uint64_t*> ptrs;
  for (size_t c = 0; c < cols; ++c) {
    columns.push_back(RandomColumn(100 + c, n, static_cast<int>(c % 4)));
    ptrs.push_back(columns.back().data());
  }
  std::vector<uint8_t> buf;
  EncodeFrame(ptrs.data(), cols, n, &buf);
  FrameReader reader;
  ASSERT_TRUE(reader.Init(buf.data(), buf.size()));
  EXPECT_EQ(reader.rows(), n);
  EXPECT_EQ(reader.cols(), cols);
  std::vector<uint64_t> block(cols * kBlockRows);
  size_t row = 0;
  while (row < n) {
    const size_t got = reader.NextBlock(block.data());
    ASSERT_GT(got, 0u);
    for (size_t c = 0; c < cols; ++c) {
      for (size_t i = 0; i < got; ++i) {
        ASSERT_EQ(block[c * kBlockRows + i], columns[c][row + i])
            << "col " << c << " row " << row + i;
      }
    }
    row += got;
  }
  EXPECT_EQ(row, n);
}

TEST(ColCodecTest, FrameRejectsTruncation) {
  const size_t n = 300;
  const std::vector<uint64_t> col = RandomColumn(3, n, 3);
  const uint64_t* ptr = col.data();
  std::vector<uint8_t> buf;
  EncodeFrame(&ptr, 1, n, &buf);
  FrameReader reader;
  EXPECT_FALSE(reader.Init(buf.data(), buf.size() / 2));
  EXPECT_FALSE(reader.Init(buf.data(), 3));  // Shorter than the header.
  ASSERT_TRUE(reader.Init(buf.data(), buf.size()));
}

}  // namespace
}  // namespace mwsj::colcodec
