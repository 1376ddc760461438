#ifndef MWSJ_COMMON_STOPWATCH_H_
#define MWSJ_COMMON_STOPWATCH_H_

#include <chrono>

namespace mwsj {

/// Wall-clock stopwatch used by the engine and benchmarks.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the watch at the current instant.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mwsj

#endif  // MWSJ_COMMON_STOPWATCH_H_
