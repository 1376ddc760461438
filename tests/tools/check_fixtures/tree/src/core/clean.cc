// Golden fixture: violates no rule. Sorted emission from an unordered
// container, a named TraceSpan, no std::function, no naked allocation —
// and rule keywords inside comments and string literals must not trip the
// matchers: std::cout, printf(, std::mt19937, new int[3].

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mwsj {

struct Emitter {
  void Emit(int64_t key, int64_t value);
};

class Tracer;
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, const char* category);
};

const char* RuleNamesInStrings() {
  return "std::cout printf( std::mt19937 rand( new ";
}

// Deterministic emit: keys are sorted before the output loop.
void FlushCountsSorted(const std::unordered_map<int64_t, int64_t>& counts,
                       Emitter& emitter, Tracer* tracer) {
  TraceSpan flush_span(tracer, "flush", "stage");
  std::vector<int64_t> keys;
  keys.reserve(counts.size());
  for (const auto& [key, value] : counts) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (int64_t key : keys) emitter.Emit(key, counts.at(key));
}

}  // namespace mwsj
