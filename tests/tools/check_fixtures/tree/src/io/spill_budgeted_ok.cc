// mwsj-check: spill-budgeted
// Fixture: in a spill-budgeted file, growth behind a reserve() and growth
// explicitly justified with allow(spill-unbounded) are both clean; files
// without the marker are exempt from the rule entirely.
#include <cstdint>
#include <vector>

namespace mwsj {

std::vector<uint8_t> BoundedStage(const uint8_t* data, size_t n) {
  std::vector<uint8_t> staged;
  staged.reserve(n);
  for (size_t i = 0; i < n; ++i) staged.push_back(data[i]);

  std::vector<uint8_t> headers;
  // mwsj-check: allow(spill-unbounded): bounded by construction, at most
  // one header per fixed-size block.
  headers.push_back(static_cast<uint8_t>(n & 0xff));
  return headers.empty() ? staged : headers;
}

}  // namespace mwsj
