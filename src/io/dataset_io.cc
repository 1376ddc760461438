#include "io/dataset_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/str_format.h"

namespace mwsj {

namespace {

constexpr char kBinaryMagic[6] = {'M', 'W', 'S', 'J', 'R', '1'};

bool HasCsvExtension(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

}  // namespace

Status WriteRectsCsv(const std::string& path, const std::vector<Rect>& rects) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open '" + path + "' for writing");
  out << "x,y,l,b\n";
  for (const Rect& r : rects) {
    out << StrFormat("%.17g,%.17g,%.17g,%.17g\n", r.x(), r.y(), r.length(),
                     r.breadth());
  }
  out.flush();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

StatusOr<std::vector<Rect>> ReadRectsCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("'" + path + "' is empty");
  }
  // Strip an optional UTF-8 BOM and trailing CR.
  if (line.size() >= 3 && line.compare(0, 3, "\xEF\xBB\xBF") == 0) {
    line.erase(0, 3);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != "x,y,l,b") {
    return Status::InvalidArgument(
        "'" + path + "': expected header 'x,y,l,b', got '" + line + "'");
  }
  std::vector<Rect> rects;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    double x, y, l, b;
    char trailing;
    const int fields =
        std::sscanf(line.c_str(), "%lf,%lf,%lf,%lf%c", &x, &y, &l, &b,
                    &trailing);
    if (fields != 4) {
      return Status::InvalidArgument(StrFormat(
          "'%s' line %zu: expected 'x,y,l,b' numbers", path.c_str(),
          line_number));
    }
    // NaN passes every branch-free predicate comparison as false, so an
    // unvalidated NaN rectangle silently drops join results instead of
    // failing; reject non-finite fields (and dimensions that only turn
    // non-finite after the corner arithmetic) at parse time.
    if (!std::isfinite(x) || !std::isfinite(y) || !std::isfinite(l) ||
        !std::isfinite(b)) {
      return Status::InvalidArgument(StrFormat(
          "'%s' line %zu: non-finite coordinate (NaN or inf)", path.c_str(),
          line_number));
    }
    if (l < 0 || b < 0) {
      return Status::InvalidArgument(StrFormat(
          "'%s' line %zu: negative dimensions", path.c_str(), line_number));
    }
    const Rect r = Rect::FromXYLB(x, y, l, b);
    if (!r.IsFinite() || !r.IsValid()) {
      return Status::InvalidArgument(StrFormat(
          "'%s' line %zu: corners overflow to a non-finite or inverted "
          "rectangle", path.c_str(), line_number));
    }
    rects.push_back(r);
  }
  return rects;
}

Status WriteRectsBinary(const std::string& path,
                        const std::vector<Rect>& rects) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open '" + path + "' for writing");
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const uint64_t count = rects.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Rect& r : rects) {
    const double fields[4] = {r.min_x(), r.min_y(), r.max_x(), r.max_y()};
    out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
  }
  out.flush();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

StatusOr<std::vector<Rect>> ReadRectsBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  char magic[sizeof(kBinaryMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an mwsj binary dataset");
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return Status::InvalidArgument("'" + path + "': truncated header");
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    double fields[4];
    in.read(reinterpret_cast<char*>(fields), sizeof(fields));
    if (!in) {
      return Status::InvalidArgument(StrFormat(
          "'%s': truncated at record %llu of %llu", path.c_str(),
          static_cast<unsigned long long>(i),
          static_cast<unsigned long long>(count)));
    }
    const Rect r(fields[0], fields[1], fields[2], fields[3]);
    if (!r.IsFinite()) {
      return Status::InvalidArgument(StrFormat(
          "'%s': record %llu has a non-finite coordinate (NaN or inf)",
          path.c_str(), static_cast<unsigned long long>(i)));
    }
    if (!r.IsValid()) {
      return Status::InvalidArgument(StrFormat(
          "'%s': record %llu is not a valid rectangle (min > max)",
          path.c_str(), static_cast<unsigned long long>(i)));
    }
    rects.push_back(r);
  }
  return rects;
}

StatusOr<std::vector<Rect>> ReadRects(const std::string& path) {
  if (HasCsvExtension(path)) return ReadRectsCsv(path);
  return ReadRectsBinary(path);
}

Status WriteRects(const std::string& path, const std::vector<Rect>& rects) {
  if (HasCsvExtension(path)) return WriteRectsCsv(path, rects);
  return WriteRectsBinary(path, rects);
}

Status WriteTuplesCsv(const std::string& path,
                      const std::vector<std::string>& relation_names,
                      const TupleBlock& tuples) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  std::string header;
  for (size_t i = 0; i < relation_names.size(); ++i) {
    if (i > 0) header += ',';
    header += relation_names[i];
  }
  header += '\n';
  bool ok = std::fwrite(header.data(), 1, header.size(), file) == header.size();

  // Rows are formatted with std::to_chars into one buffer that is written
  // whenever less than a worst-case row (20 characters and a separator per
  // id) is left.
  constexpr size_t kIdChars = 20;  // "-9223372036854775808".
  const size_t row_max = tuples.arity() * (kIdChars + 1);
  std::vector<char> buffer(std::max<size_t>(size_t{1} << 20, 2 * row_max));
  char* const begin = buffer.data();
  char* const flush_at = begin + buffer.size() - row_max;
  char* p = begin;
  auto flush = [&] {
    const size_t bytes = static_cast<size_t>(p - begin);
    ok = ok && std::fwrite(begin, 1, bytes, file) == bytes;
    p = begin;
  };
  for (const IdTuple row : tuples) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) *p++ = ',';
      p = std::to_chars(p, p + kIdChars, row[i]).ptr;
    }
    *p++ = '\n';
    if (p >= flush_at) flush();
  }
  flush();
  ok = std::fclose(file) == 0 && ok;
  if (!ok) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace mwsj
