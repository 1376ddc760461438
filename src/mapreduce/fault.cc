#include "mapreduce/fault.h"

#include <limits>

#include "common/str_format.h"

namespace mwsj {

namespace {

// splitmix64 finalizer: full-avalanche mixing so adjacent task/attempt
// indices decorrelate. The plan must be a pure deterministic function of
// its key on every platform, so no std::hash.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* FaultPhaseName(FaultPhase phase) {
  switch (phase) {
    case FaultPhase::kMap:
      return "map";
    case FaultPhase::kReduce:
      return "reduce";
    case FaultPhase::kSpill:
      return "spill";
  }
  return "unknown";
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kFlakyIo:
      return "flaky-io";
    case FaultKind::kSlow:
      return "slow";
  }
  return "unknown";
}

FaultPlan FaultPlan::Seeded(uint64_t seed, double crash_prob,
                            double flaky_prob, double slow_prob) {
  FaultPlan plan;
  plan.seed_ = seed;
  plan.crash_prob_ = crash_prob;
  plan.flaky_prob_ = flaky_prob;
  plan.slow_prob_ = slow_prob;
  return plan;
}

StatusOr<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  uint64_t seed = 0;
  double crash = 0, flaky = 0, slow = 0;
  int bound = 3;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("fault spec item '%s' is not key=value", item.c_str()));
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      if (!ParseWhole(value, &seed)) {
        return Status::InvalidArgument(StrFormat(
            "fault seed '%s' is not an unsigned 64-bit integer",
            item.c_str()));
      }
    } else if (key == "bound") {
      if (!ParseWhole(value, &bound) || bound < 0) {
        return Status::InvalidArgument(StrFormat(
            "fault bound '%s' is not an attempt count in [0, %d]",
            item.c_str(), std::numeric_limits<int>::max()));
      }
    } else if (key == "crash" || key == "flaky" || key == "slow") {
      double p = 0;
      // `!(p >= 0 && p <= 1)` rejects NaN as well.
      if (!ParseWhole(value, &p) || !(p >= 0 && p <= 1)) {
        return Status::InvalidArgument(StrFormat(
            "fault probability '%s' is not a number in [0, 1]",
            item.c_str()));
      }
      (key == "crash" ? crash : key == "flaky" ? flaky : slow) = p;
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown fault spec key '%s' (expected seed, crash, "
                    "flaky, slow, or bound)",
                    key.c_str()));
    }
  }
  if (crash + flaky + slow > 1.0) {
    return Status::InvalidArgument(
        "fault probabilities must sum to at most 1");
  }
  FaultPlan plan = Seeded(seed, crash, flaky, slow);
  plan.set_max_faulted_attempts(bound);
  return plan;
}

void FaultPlan::Inject(FaultPhase phase, int64_t task, int attempt,
                       FaultKind kind) {
  injected_[Key(static_cast<int>(phase), task, attempt)] = kind;
}

FaultKind FaultPlan::At(FaultPhase phase, int64_t task, int attempt) const {
  if (!injected_.empty()) {
    const auto it =
        injected_.find(Key(static_cast<int>(phase), task, attempt));
    if (it != injected_.end()) return it->second;
  }
  if (crash_prob_ + flaky_prob_ + slow_prob_ <= 0) return FaultKind::kNone;
  if (attempt >= max_faulted_attempts_) return FaultKind::kNone;
  uint64_t h = Mix(seed_ ^ 0x6d77736a'6661756cull);  // "mwsj" "faul"
  h = Mix(h ^ static_cast<uint64_t>(phase));
  h = Mix(h ^ static_cast<uint64_t>(task));
  h = Mix(h ^ static_cast<uint64_t>(attempt));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < crash_prob_) return FaultKind::kCrash;
  if (u < crash_prob_ + flaky_prob_) return FaultKind::kFlakyIo;
  if (u < crash_prob_ + flaky_prob_ + slow_prob_) return FaultKind::kSlow;
  return FaultKind::kNone;
}

bool FaultPlan::empty() const {
  return injected_.empty() && crash_prob_ + flaky_prob_ + slow_prob_ <= 0;
}

double BackoffSeconds(const RetryPolicy& policy, int attempt) {
  double s = policy.backoff_initial_seconds;
  for (int i = 0; i < attempt; ++i) s *= policy.backoff_multiplier;
  return s;
}

}  // namespace mwsj
