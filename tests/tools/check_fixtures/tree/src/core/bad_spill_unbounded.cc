// mwsj-check: spill-budgeted
// Fixture: amortized-doubling growth with no reserve() in a file that
// claims the bounded-memory spill contract must be flagged.
#include <cstdint>
#include <vector>

namespace mwsj {

std::vector<uint8_t> StageRun(const uint8_t* data, size_t n) {
  std::vector<uint8_t> staged;
  staged.reserve(n);
  for (size_t i = 0; i < n; ++i) staged.push_back(data[i]);

  std::vector<uint8_t> unbounded;
  for (size_t i = 0; i < n; ++i) unbounded.push_back(data[i]);  // Flagged.
  return unbounded.empty() ? staged : unbounded;
}

}  // namespace mwsj
