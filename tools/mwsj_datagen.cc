// mwsj_datagen — generate rectangle datasets for mwsj_join.
//
//   mwsj_datagen --kind synthetic --n 100000 --seed 1 --out r1.csv
//                [--space 100000] [--lmax 100] [--bmax 100]
//                [--dist-xy uniform|gaussian|clustered]
//   mwsj_datagen --kind california --n 2092079 --out roads.bin
//
// The synthetic generator implements the paper's §7.8.2 parameters; the
// california generator synthesizes MBBs matching the published statistics
// of the Census 2000 TIGER/Line road dataset.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/stopwatch.h"
#include "common/str_format.h"
#include "datagen/california.h"
#include "datagen/synthetic.h"
#include "io/dataset_io.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --kind synthetic|california --n COUNT --out PATH\n"
               "  [--seed S] [--space SIDE] [--lmax L] [--bmax B]\n"
               "  [--dist-xy uniform|gaussian|clustered]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string kind = "synthetic";
  std::string out_path;
  int64_t n = 0;
  uint64_t seed = 1;
  double space = 100'000;
  double lmax = 100;
  double bmax = 100;
  mwsj::Distribution dist_xy = mwsj::Distribution::kUniform;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--kind" && (v = next())) {
      kind = v;
    } else if (arg == "--n" && (v = next())) {
      if (!mwsj::ParseWhole(v, &n) || n <= 0) {
        std::fprintf(stderr, "--n expects COUNT >= 1, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--seed" && (v = next())) {
      if (!mwsj::ParseWhole(v, &seed)) {
        std::fprintf(stderr, "--seed expects an unsigned integer, got '%s'\n",
                     v);
        return 2;
      }
    } else if (arg == "--out" && (v = next())) {
      out_path = v;
    } else if ((arg == "--space" || arg == "--lmax" || arg == "--bmax") &&
               (v = next())) {
      double* value = arg == "--space" ? &space
                      : arg == "--lmax" ? &lmax
                                        : &bmax;
      if (!mwsj::ParseWhole(v, value) || !std::isfinite(*value)) {
        std::fprintf(stderr, "%s expects a finite number, got '%s'\n",
                     arg.c_str(), v);
        return 2;
      }
    } else if (arg == "--dist-xy" && (v = next())) {
      if (std::strcmp(v, "uniform") == 0) {
        dist_xy = mwsj::Distribution::kUniform;
      } else if (std::strcmp(v, "gaussian") == 0) {
        dist_xy = mwsj::Distribution::kGaussian;
      } else if (std::strcmp(v, "clustered") == 0) {
        dist_xy = mwsj::Distribution::kClustered;
      } else {
        std::fprintf(stderr, "unknown distribution '%s'\n", v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (out_path.empty() || n <= 0) return Usage(argv[0]);

  mwsj::Stopwatch watch;
  std::vector<mwsj::Rect> rects;
  if (kind == "synthetic") {
    mwsj::SyntheticParams params;
    params.num_rectangles = n;
    params.seed = seed;
    params.x_max = params.y_max = space;
    params.l_max = lmax;
    params.b_max = bmax;
    params.dist_x = params.dist_y = dist_xy;
    auto data = mwsj::GenerateSynthetic(params);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    rects = std::move(data).value();
  } else if (kind == "california") {
    mwsj::CaliforniaParams params;
    params.num_roads = n;
    params.seed = seed;
    rects = mwsj::GenerateCaliforniaRoads(params);
  } else {
    std::fprintf(stderr, "unknown kind '%s'\n", kind.c_str());
    return 2;
  }

  const double generate_seconds = watch.ElapsedSeconds();

  watch.Reset();
  const mwsj::Status st = mwsj::WriteRects(out_path, rects);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu rectangles to %s (generate %.3fs, write %.3fs)\n",
              rects.size(), out_path.c_str(), generate_seconds,
              watch.ElapsedSeconds());
  return 0;
}
