// Dataset I/O: CSV/binary round trips and malformed-input handling.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/random.h"
#include "io/dataset_io.h"

namespace mwsj {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "mwsj_io_" + name;
  }

  void TearDown() override {
    for (const std::string& p : created_) std::remove(p.c_str());
  }

  std::string Track(std::string path) {
    created_.push_back(path);
    return path;
  }

  std::vector<Rect> RandomRects(int n) {
    Rng rng(3);
    std::vector<Rect> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(Rect::FromXYLB(rng.Uniform(-50, 50), rng.Uniform(-50, 50),
                                   rng.Uniform(0, 10), rng.Uniform(0, 10)));
    }
    return out;
  }

  std::vector<std::string> created_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(DatasetIoTest, CsvRoundTrip) {
  const std::string path = Track(TempPath("roundtrip.csv"));
  const std::vector<Rect> rects = RandomRects(200);
  ASSERT_TRUE(WriteRectsCsv(path, rects).ok());
  const auto loaded = ReadRectsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), rects);  // %.17g is lossless for doubles.
}

TEST_F(DatasetIoTest, BinaryRoundTrip) {
  const std::string path = Track(TempPath("roundtrip.bin"));
  const std::vector<Rect> rects = RandomRects(500);
  ASSERT_TRUE(WriteRectsBinary(path, rects).ok());
  const auto loaded = ReadRectsBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), rects);
}

TEST_F(DatasetIoTest, EmptyDatasetsRoundTrip) {
  const std::string csv = Track(TempPath("empty.csv"));
  const std::string bin = Track(TempPath("empty.bin"));
  ASSERT_TRUE(WriteRectsCsv(csv, {}).ok());
  ASSERT_TRUE(WriteRectsBinary(bin, {}).ok());
  EXPECT_TRUE(ReadRectsCsv(csv).value().empty());
  EXPECT_TRUE(ReadRectsBinary(bin).value().empty());
}

TEST_F(DatasetIoTest, ExtensionDispatch) {
  const std::string csv = Track(TempPath("dispatch.csv"));
  const std::string bin = Track(TempPath("dispatch.bin"));
  const std::vector<Rect> rects = RandomRects(50);
  ASSERT_TRUE(WriteRects(csv, rects).ok());
  ASSERT_TRUE(WriteRects(bin, rects).ok());
  EXPECT_EQ(ReadRects(csv).value(), rects);
  EXPECT_EQ(ReadRects(bin).value(), rects);
}

TEST_F(DatasetIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadRectsCsv("/nonexistent/x.csv").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ReadRectsBinary("/nonexistent/x.bin").status().code(),
            StatusCode::kNotFound);
}

TEST_F(DatasetIoTest, CsvRejectsBadHeaderAndRows) {
  const std::string path = Track(TempPath("bad.csv"));
  {
    std::ofstream out(path);
    out << "a,b,c\n1,2,3,4\n";
  }
  EXPECT_EQ(ReadRectsCsv(path).status().code(), StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "x,y,l,b\n1,2,three,4\n";
  }
  EXPECT_EQ(ReadRectsCsv(path).status().code(), StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "x,y,l,b\n1,2,-3,4\n";  // Negative length.
  }
  EXPECT_EQ(ReadRectsCsv(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, CsvRejectsNonFiniteCoordinates) {
  // NaN makes every branch-free predicate comparison false, so a NaN MBR
  // that survives ingest silently deletes join results. The reader must
  // reject it and name the offending line.
  const std::string path = Track(TempPath("nan.csv"));
  {
    std::ofstream out(path);
    out << "x,y,l,b\n1,2,3,4\nnan,2,3,4\n";
  }
  const auto nan_result = ReadRectsCsv(path);
  EXPECT_EQ(nan_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_result.status().message().find("line 3"), std::string::npos)
      << nan_result.status().ToString();
  {
    std::ofstream out(path);
    out << "x,y,l,b\n1,2,inf,4\n";
  }
  EXPECT_EQ(ReadRectsCsv(path).status().code(), StatusCode::kInvalidArgument);
  {
    // Finite fields whose corner arithmetic overflows: x + l == inf.
    std::ofstream out(path);
    out << "x,y,l,b\n1e308,2,1e308,4\n";
  }
  EXPECT_EQ(ReadRectsCsv(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, BinaryRejectsNaNAndInvertedRecords) {
  const std::string path = Track(TempPath("nan.bin"));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Write records through the raw writer: Rect carries whatever bits the
  // caller supplies, so a hostile/buggy producer can serialize NaN or
  // min > max; the reader is the validation boundary.
  ASSERT_TRUE(
      WriteRectsBinary(path, {Rect(0, 0, 1, 1), Rect(nan, 0, 1, 1)}).ok());
  const auto nan_result = ReadRectsBinary(path);
  EXPECT_EQ(nan_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_result.status().message().find("record 1"), std::string::npos)
      << nan_result.status().ToString();

  ASSERT_TRUE(WriteRectsBinary(path, {Rect(2, 0, 1, 1)}).ok());  // min > max.
  const auto inverted = ReadRectsBinary(path);
  EXPECT_EQ(inverted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(inverted.status().message().find("record 0"), std::string::npos);
}

TEST_F(DatasetIoTest, CsvToleratesCrlfAndBlankLines) {
  const std::string path = Track(TempPath("crlf.csv"));
  {
    std::ofstream out(path);
    out << "x,y,l,b\r\n1,2,3,1\r\n\r\n5,6,1,2\r\n";
  }
  const auto loaded = ReadRectsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0], Rect::FromXYLB(1, 2, 3, 1));
}

TEST_F(DatasetIoTest, BinaryRejectsWrongMagicAndTruncation) {
  const std::string path = Track(TempPath("bad.bin"));
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTMWSJ";
  }
  EXPECT_EQ(ReadRectsBinary(path).status().code(),
            StatusCode::kInvalidArgument);

  // Valid file, then truncate the payload.
  ASSERT_TRUE(WriteRectsBinary(path, RandomRects(10)).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() - 16));
  }
  EXPECT_EQ(ReadRectsBinary(path).status().code(),
            StatusCode::kInvalidArgument);
}

// Writes the binary header (magic + count) followed by `records` zeroed
// 32-byte records.
void WriteBinaryHeader(const std::string& path, uint64_t count,
                       size_t records) {
  std::ofstream out(path, std::ios::binary);
  out.write("MWSJR1", 6);
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  const std::string record(32, '\0');
  for (size_t i = 0; i < records; ++i) out.write(record.data(), 32);
}

TEST_F(DatasetIoTest, BinaryRejectsACountThePayloadCannotHold) {
  const std::string path = Track(TempPath("count.bin"));
  // A 14-byte file claiming 2^62 or 2^33 records must fail cleanly, not
  // reserve (length_error / bad_alloc) before reading a record.
  for (const uint64_t count : {uint64_t{1} << 62, uint64_t{1} << 33}) {
    WriteBinaryHeader(path, count, 0);
    const auto result = ReadRectsBinary(path);
    ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "count " << count;
    EXPECT_NE(result.status().message().find(std::to_string(count) +
                                             " records, the payload holds 0"),
              std::string::npos)
        << result.status().ToString();
  }

  // One record past the payload.
  WriteBinaryHeader(path, 4, 3);
  const auto short_payload = ReadRectsBinary(path);
  ASSERT_EQ(short_payload.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(short_payload.status().message().find(
                "claims 4 records, the payload holds 3"),
            std::string::npos)
      << short_payload.status().ToString();

  // An exact payload still reads (zeroed records are valid point rects).
  WriteBinaryHeader(path, 3, 3);
  const auto exact = ReadRectsBinary(path);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact.value().size(), 3u);
}

TEST_F(DatasetIoTest, TuplesCsv) {
  const std::string path = Track(TempPath("tuples.csv"));
  ASSERT_TRUE(
      WriteTuplesCsv(path, {"city", "river"}, {{1, 2}, {3, 4}}).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "city,river");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
}

// Output bytes are pinned by golden files written by the stream-based
// formatter this writer replaced: negative ids, the int64 extremes, and
// arities 1 and 7.
TEST_F(DatasetIoTest, TuplesCsvMatchesGoldenFiles) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  const std::string one = Track(TempPath("tuples_arity1.csv"));
  ASSERT_TRUE(WriteTuplesCsv(one, {"only"},
                             {{0}, {-1}, {7}, {lo}, {hi}, {-42}, {1000000007}})
                  .ok());
  EXPECT_EQ(ReadAll(one), ReadAll(MWSJ_IO_TESTDATA "/tuples_arity1.csv"));

  const std::string seven = Track(TempPath("tuples_arity7.csv"));
  ASSERT_TRUE(
      WriteTuplesCsv(seven, {"R1", "R2", "R3", "R4", "R5", "R6", "R7"},
                     {{0, 1, 2, 3, 4, 5, 6},
                      {-1, -10, -100, -1000, -10000, -100000, -1000000},
                      {lo, hi, 0, lo + 1, hi - 1, -9, 9},
                      {123456789012345, -123456789012345, 5, -5, 50, -50, 0}})
          .ok());
  EXPECT_EQ(ReadAll(seven), ReadAll(MWSJ_IO_TESTDATA "/tuples_arity7.csv"));
}

// A file of several write buffers (about 9 MiB) equals the rows formatted
// by `operator<<`, and an empty block writes the header alone.
TEST_F(DatasetIoTest, TuplesCsvSpanningManyBuffersMatchesStreamFormatting) {
  Rng rng(11);
  TupleBlock tuples(7);
  for (int i = 0; i < 200000; ++i) {
    const std::span<int64_t> row = tuples.AppendRow();
    for (int64_t& id : row) {
      id = static_cast<int64_t>(rng.Next()) >> rng.UniformInt(0, 63);
    }
  }
  std::ostringstream expected;
  expected << "a,b,c,d,e,f,g\n";
  for (const IdTuple row : tuples) {
    for (size_t i = 0; i < row.size(); ++i) {
      expected << (i > 0 ? "," : "") << row[i];
    }
    expected << '\n';
  }
  const std::string path = Track(TempPath("tuples_large.csv"));
  ASSERT_TRUE(
      WriteTuplesCsv(path, {"a", "b", "c", "d", "e", "f", "g"}, tuples).ok());
  EXPECT_EQ(ReadAll(path), expected.str());

  const std::string empty = Track(TempPath("tuples_empty.csv"));
  ASSERT_TRUE(WriteTuplesCsv(empty, {"a", "b"}, TupleBlock(2)).ok());
  EXPECT_EQ(ReadAll(empty), "a,b\n");
}

TEST_F(DatasetIoTest, TuplesCsvReportsAnUnwritablePath) {
  EXPECT_FALSE(WriteTuplesCsv(TempPath("no_such_dir/tuples.csv"), {"a"},
                              {{1}})
                   .ok());
}

}  // namespace
}  // namespace mwsj
