// paper_tables [NAME...] — runs the paper's Tables 2-9 and the ablations
// (bench/paper_specs.cc; no name runs every spec) in a scaled world, prints
// each paper cell beside the measured one, and checks the spec's claims.
//
// Scale-free claims (equal outputs across a row's variants; C-Rep-L <=
// C-Rep <= All-Replicate in rectangles after replication and in copies)
// set the exit code: 1 when one fails. At-scale claims are printed only.
// MWSJ_BENCH_JSON names a file that gets one JSON row per run, appended.
// Exit code 2, before any run: an unknown spec name, a bad
// MWSJ_BENCH_SCALE / MWSJ_CPU_SCALE, or an MWSJ_BENCH_JSON that cannot be
// opened.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"
#include "common/str_format.h"
#include "core/optimizer.h"
#include "paper_tables.h"
#include "query/parser.h"
#include "simd/simd.h"

namespace mwsj::bench {

BenchEnv BenchEnv::WithRowScale(double factor) const {
  BenchEnv env = *this;
  env.scale = scale * factor;
  return env;
}

int64_t BenchEnv::Count(double paper_count) const {
  return static_cast<int64_t>(std::llround(paper_count * scale));
}

double BenchEnv::SpaceLength(double paper_length) const {
  return paper_length * std::sqrt(scale);
}

namespace {

/// Reads environment variable `name` into `*out` when it is set and not
/// empty. Junk, or a value outside (0, max], prints a message and returns
/// false.
bool ReadSetting(const char* name, double max, double* out) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return true;
  double value = 0;
  if (!ParseWhole(std::string_view(text), &value) || !std::isfinite(value) ||
      value <= 0 || value > max) {
    std::fprintf(stderr, "%s=\"%s\": expected a finite number in (0, %g]\n",
                 name, text, max);
    return false;
  }
  *out = value;
  return true;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Skew(const JobStats& job) {
  const double avg =
      static_cast<double>(job.intermediate_records) / job.num_reducers;
  return avg > 0 ? static_cast<double>(job.MaxReducerRecords()) / avg : 0;
}

/// Runs one variant on the given world, counting tuples without
/// materializing them.
Measured RunMeasured(const BenchEnv& env, const Query& query,
                     const World& world, RunnerOptions options) {
  options.space = world.space;
  options.count_only = true;
  options.context.pool = env.pool;
  const double cpu_start = CpuSeconds();
  Stopwatch watch;
  StatusOr<JoinRunResult> result =
      RunSpatialJoin(query, world.relations, options);
  Measured m;
  if (!result.ok()) {
    m.error = result.status().ToString();
    return m;
  }
  m.ran = true;
  m.wall_seconds = watch.ElapsedSeconds();
  m.cpu_seconds = CpuSeconds() - cpu_start;
  m.output_tuples = result.value().num_tuples;
  m.stats = std::move(result.value().stats);

  const double inv = 1.0 / env.scale;
  RunStats extrapolated = m.stats;
  for (JobStats& job : extrapolated.jobs) {
    job.map_input_bytes = static_cast<int64_t>(job.map_input_bytes * inv);
    job.intermediate_bytes =
        static_cast<int64_t>(job.intermediate_bytes * inv);
    job.reduce_output_bytes =
        static_cast<int64_t>(job.reduce_output_bytes * inv);
    for (double& s : job.per_reducer_seconds) s *= inv;
  }
  m.modeled_seconds = env.model.RunSeconds(extrapolated);
  m.replicated = m.stats.UserCounter(kCounterRectanglesReplicated) * inv;
  m.after_replication =
      m.stats.UserCounter(kCounterRectanglesAfterReplication) * inv;
  m.copies = m.stats.UserCounter(kCounterReplicationCopies) * inv;
  m.communication =
      static_cast<double>(m.stats.TotalIntermediateRecords()) * inv;
  m.first_job_skew = Skew(m.stats.jobs.front());
  m.last_job_skew = Skew(m.stats.jobs.back());
  for (int64_t records : m.stats.jobs.back().per_reducer_records) {
    if (records == 0) ++m.idle_cells;
  }
  return m;
}

std::string FormatValue(double value) {
  return value >= 1e6 ? StrFormat("%gm", value / 1e6)
                      : StrFormat("%g", value);
}

/// Appends one self-describing JSON line for a run that completed.
void RecordRow(FILE* sink, const Spec& spec, const Variant& variant,
               const Row& row, const BenchEnv& env, const Measured& m) {
  if (sink == nullptr || !m.ran) return;
  const RunStats& stats = m.stats;
  int64_t comm_bytes = 0;
  int64_t spill_stored = 0;
  int64_t spill_raw = 0;
  int64_t spill_runs = 0;
  int64_t peak_inbox = 0;
  bool spill_active = false;
  for (const JobStats& job : stats.jobs) {
    comm_bytes += job.intermediate_bytes;
    if (job.spill.active()) {
      spill_active = true;
      spill_stored += job.spill.spilled_stored_bytes;
      spill_raw += job.spill.spilled_raw_bytes;
      spill_runs += job.spill.spilled_runs;
      peak_inbox = std::max(peak_inbox, job.spill.peak_inbox_bytes);
    }
  }
  const auto count = [&](const char* counter) {
    return static_cast<long long>(stats.UserCounter(counter));
  };
  std::string line = StrFormat(
      "{\"spec\": \"%s\", \"variant\": \"%s\", \"algorithm\": \"%s\", "
      "\"parameter\": \"%s\", \"value\": %.10g, \"scale\": %g, "
      "\"grid\": \"%dx%d\", \"threads\": %zu, \"isa\": \"%s\", "
      "\"wall_seconds\": %.3f, \"cpu_seconds\": %.3f, "
      "\"modeled_seconds\": %.1f, \"rectangles_replicated\": %lld, "
      "\"replication_copies\": %lld, \"rectangles_after_replication\": %lld, "
      "\"communication_records\": %lld, \"communication_bytes\": %lld, "
      "\"output_tuples\": %lld",
      spec.name, variant.name.c_str(),
      AlgorithmName(variant.options.algorithm), spec.parameter, row.value,
      env.scale, variant.options.grid_rows, variant.options.grid_cols,
      env.pool->num_threads(), simd::IsaName(simd::ActiveIsa()),
      m.wall_seconds, m.cpu_seconds, m.modeled_seconds,
      count(kCounterRectanglesReplicated), count(kCounterReplicationCopies),
      count(kCounterRectanglesAfterReplication),
      static_cast<long long>(stats.TotalIntermediateRecords()),
      static_cast<long long>(comm_bytes),
      static_cast<long long>(m.output_tuples));
  if (spill_active) {
    line += StrFormat(
        ", \"spill\": {\"runs\": %lld, \"raw_bytes\": %lld, "
        "\"stored_bytes\": %lld, \"peak_inbox_bytes\": %lld}",
        static_cast<long long>(spill_runs), static_cast<long long>(spill_raw),
        static_cast<long long>(spill_stored),
        static_cast<long long>(peak_inbox));
  }
  line += "}\n";
  std::fputs(line.c_str(), sink);
  std::fflush(sink);
}

/// The measured columns of one run line.
std::string MeasuredCells(const Spec& spec, const Measured& m) {
  if (!m.ran) return "FAILED: " + m.error;
  std::string replication = "-";
  if (m.after_replication > 0 || m.copies > 0) {
    replication = StrFormat(
        "%s, (%s)", FormatMillions(m.replicated).c_str(),
        FormatMillions(spec.copies_cell ? m.copies : m.after_replication)
            .c_str());
  }
  return StrFormat(
      "%s (wall %.2fs, cpu %.2fs)  %-16s tuples %lld, shuffled %s, max/avg "
      "%.2f first | %.2f last, idle %d",
      FormatHhMm(m.modeled_seconds).c_str(), m.wall_seconds, m.cpu_seconds,
      replication.c_str(), static_cast<long long>(m.output_tuples),
      FormatMillions(m.communication).c_str(), m.first_job_skew,
      m.last_job_skew, m.idle_cells);
}

void PrintClaim(bool pass, const char* kind, const std::string& text) {
  std::printf("  %s  %-10s %s\n", pass ? "PASS" : "FAIL", kind,
              text.c_str());
}

int VariantIndex(const Spec& spec, const char* name) {
  for (size_t v = 0; v < spec.variants.size(); ++v) {
    if (spec.variants[v].name == name) return static_cast<int>(v);
  }
  return -1;
}

using Results = std::vector<std::vector<Measured>>;  // [row][variant]

/// Checks and prints the scale-free claims: equal output tuples across
/// each row's variants (a may-lose variant: at most the first run's), and
/// rectangles after replication and copies ordered C-Rep-L <= C-Rep <=
/// All-Replicate — f2's cells are a subset of f1's fourth quadrant, and a
/// projected rectangle's start cell lies in it. A failed run fails both.
bool CheckScaleFree(const Spec& spec, const Results& results) {
  std::vector<int> chain;
  for (const char* name : {"C-Rep-L", "C-Rep", "All-Replicate"}) {
    if (const int v = VariantIndex(spec, name); v >= 0) chain.push_back(v);
  }
  std::string outputs;
  std::string order;
  bool failed = false;
  for (size_t r = 0; r < results.size(); ++r) {
    const std::string at = StrFormat(" %s=%s", spec.parameter,
                                     FormatValue(spec.rows[r].value).c_str());
    const Measured* reference = nullptr;
    for (size_t v = 0; v < results[r].size(); ++v) {
      const Measured& m = results[r][v];
      if (!m.error.empty()) {
        failed = true;
        outputs += StrFormat("%s: %s failed;", at.c_str(),
                             spec.variants[v].name.c_str());
      }
      if (!m.ran) continue;
      if (reference == nullptr) reference = &m;
      if (spec.variants[v].may_lose_tuples
              ? m.output_tuples > reference->output_tuples
              : m.output_tuples != reference->output_tuples) {
        outputs += StrFormat("%s: %s %lld vs %lld;", at.c_str(),
                             spec.variants[v].name.c_str(),
                             static_cast<long long>(m.output_tuples),
                             static_cast<long long>(reference->output_tuples));
      }
    }
    const Measured* previous = nullptr;
    for (int v : chain) {
      const Measured& m = results[r][v];
      if (!m.ran) continue;
      if (previous != nullptr &&
          (previous->after_replication > m.after_replication ||
           previous->copies > m.copies)) {
        order += at + " out of order;";
      }
      previous = &m;
    }
  }
  std::string equal = "equal output tuples across the variants of every row";
  for (const Variant& variant : spec.variants) {
    if (variant.may_lose_tuples) equal += " (" + variant.name + ": at most)";
  }
  PrintClaim(outputs.empty(), "scale-free", equal + outputs);
  if (chain.size() >= 2) {
    PrintClaim(order.empty() && !failed, "scale-free",
               "rectangles after replication and copies: C-Rep-L <= C-Rep <= "
               "All-Replicate in every row" + order);
  }
  return outputs.empty() && order.empty();
}

/// Evaluates and prints one at-scale claim.
void CheckAtScale(const Spec& spec, const Claim& claim,
                  const Results& results) {
  const int num = VariantIndex(spec, claim.num);
  const int den = claim.den != nullptr ? VariantIndex(spec, claim.den) : num;
  const auto in_range = [&](double v) {
    return v >= claim.lo && v <= claim.hi;
  };
  bool pass = num >= 0 && den >= 0;
  std::string values;
  std::vector<double> evaluated;
  for (size_t r = 0; num >= 0 && den >= 0 && r < results.size(); ++r) {
    const Measured& a = results[r][num];
    const Measured& b = results[r][den];
    if (!a.error.empty() || !b.error.empty()) pass = false;
    if (!a.ran || !b.ran) continue;
    const double v =
        a.*claim.metric / (claim.den != nullptr ? b.*claim.metric : 1.0);
    const bool out = !claim.trend && !in_range(v);
    pass = pass && !out;
    values += StrFormat(" %s %.3g%s", FormatValue(spec.rows[r].value).c_str(),
                        v, out ? " (out)" : "");
    evaluated.push_back(v);
  }
  std::string ratio = claim.num;
  if (claim.den != nullptr) ratio += StrFormat(" / %s", claim.den);
  pass = pass && !evaluated.empty();
  if (claim.trend && pass) {
    const double v = evaluated.back() / evaluated.front();
    pass = in_range(v);
    ratio = StrFormat("last / first row of (%s) = %.2f", ratio.c_str(), v);
  }
  PrintClaim(pass, "at scale",
             StrFormat("%s: %s in [%g, %g]:%s", claim.text, ratio.c_str(),
                       claim.lo, claim.hi, values.c_str()));
}

/// Runs every (row, variant) of `spec` and checks its claims. Returns
/// false when a scale-free claim fails.
bool RunSpec(const Spec& spec, const BenchEnv& base_env, FILE* sink) {
  std::printf("%s\n", std::string(65, '=').c_str());
  std::printf("%s  [%s]\n", spec.title, spec.name);
  std::printf("Query: %s\n", spec.query);
  std::printf(
      "Scaled reproduction: scale=%g (counts x%g, space side x%g, rectangle "
      "dims and distances at paper values), grid 8x8 unless a variant sets "
      "it\n",
      base_env.scale, base_env.scale, std::sqrt(base_env.scale));
  std::printf(
      "Columns: paper time | modeled cluster time (extrapolated counters) "
      "and in-process wall | paper replicated, (%s) | measured\n",
      spec.copies_cell ? "copies" : "after replication");
  std::printf("%s\n", std::string(65, '=').c_str());

  Results results(spec.rows.size());
  for (size_t r = 0; r < spec.rows.size(); ++r) {
    const Row& row = spec.rows[r];
    const BenchEnv env = base_env.WithRowScale(row.row_scale);
    const World world = spec.world(env, row.value);
    std::string query_text = spec.query;
    for (size_t at; (at = query_text.find("(d)")) != std::string::npos;) {
      query_text.replace(at, 3, StrFormat("(%g)", row.value));
    }
    const Query query = ParseQuery(query_text).value();
    std::string sizes;
    for (const auto& relation : world.relations) {
      sizes += StrFormat("%s%zu", sizes.empty() ? "" : " / ", relation.size());
    }
    std::printf("%s = %s (scale %g): %s rectangles\n", spec.parameter,
                FormatValue(row.value).c_str(), env.scale, sizes.c_str());
    for (size_t v = 0; v < spec.variants.size(); ++v) {
      const Variant& variant = spec.variants[v];
      const PaperCell paper = row.paper.empty() ? PaperCell{} : row.paper[v];
      std::string name = variant.name;
      if (variant.options.optimize_cascade_order) {
        const std::vector<int> order =
            OptimizeCascadeOrder(query, world.relations);
        for (size_t i = 0; i < order.size(); ++i) {
          name += StrFormat("%sR%d", i == 0 ? " " : ",", order[i] + 1);
        }
      }
      Measured m;
      if (paper.run) m = RunMeasured(env, query, world, variant.options);
      std::string cells =
          paper.run ? MeasuredCells(spec, m) : "not run, as in the paper";
      if (variant.may_lose_tuples && m.ran && !results[r].empty()) {
        cells += StrFormat(", lost %lld",
                           static_cast<long long>(
                               results[r].front().output_tuples -
                               m.output_tuples));
      }
      std::printf("  %-18s %-7s %-14s| %s\n", name.c_str(),
                  paper.time != nullptr ? paper.time : "-",
                  paper.replication != nullptr ? paper.replication : "-",
                  cells.c_str());
      if (!m.error.empty()) {
        std::fprintf(stderr, "%s %s failed: %s\n", spec.name,
                     variant.name.c_str(), m.error.c_str());
      }
      RecordRow(sink, spec, variant, row, env, m);
      results[r].push_back(std::move(m));
    }
  }

  std::printf("claims:\n");
  const bool ok = CheckScaleFree(spec, results);
  for (const Claim& claim : spec.claims) CheckAtScale(spec, claim, results);
  return ok;
}

}  // namespace
}  // namespace mwsj::bench

int main(int argc, char** argv) {
  using mwsj::bench::Spec;
  mwsj::bench::BenchEnv env;
  if (!mwsj::bench::ReadSetting("MWSJ_BENCH_SCALE", 1.0, &env.scale) ||
      !mwsj::bench::ReadSetting("MWSJ_CPU_SCALE", HUGE_VAL,
                                &env.model.cpu_scale)) {
    return 2;
  }
  const std::vector<Spec> specs = mwsj::bench::PaperSpecs();
  std::vector<const Spec*> selected;
  for (int i = 1; i < argc; ++i) {
    const Spec* found = nullptr;
    for (const Spec& spec : specs) {
      if (std::string_view(argv[i]) == spec.name) found = &spec;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "unknown table \"%s\"; usage: %s [NAME...] with "
                   "NAME one of:", argv[i], argv[0]);
      for (const Spec& spec : specs) std::fprintf(stderr, " %s", spec.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(found);
  }
  if (selected.empty()) {
    for (const Spec& spec : specs) selected.push_back(&spec);
  }

  FILE* sink = nullptr;
  if (const char* path = std::getenv("MWSJ_BENCH_JSON");
      path != nullptr && path[0] != '\0') {
    sink = std::fopen(path, "a");
    if (sink == nullptr) {
      std::fprintf(stderr, "cannot open MWSJ_BENCH_JSON=\"%s\"\n", path);
      return 2;
    }
  }
  mwsj::ThreadPool pool;
  env.pool = &pool;
  bool ok = true;
  for (const Spec* spec : selected) {
    ok = mwsj::bench::RunSpec(*spec, env, sink) && ok;
  }
  if (sink != nullptr) std::fclose(sink);
  return ok ? 0 : 1;
}
