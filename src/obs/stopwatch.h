// The one stopwatch for every `--timing` measurement. Monotonic by
// construction: `steady_clock` is statically asserted, so no duration in a
// timing table can go negative when NTP steps the wall clock mid-run.
#pragma once

#include <chrono>

namespace locald::obs {

class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "timing durations must come from a monotonic clock");

  Stopwatch() : start_(Clock::now()) {}

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  Clock::time_point start_;
};

}  // namespace locald::obs
