// Host clocks the benchmark reads: wall time and process / thread CPU time.
#pragma once

#include <chrono>
#include <ctime>

namespace sweepbench {

[[nodiscard]] inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double cpu_now(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of every thread of this process.
[[nodiscard]] inline double process_cpu_now() {
  return cpu_now(CLOCK_PROCESS_CPUTIME_ID);
}

/// CPU time of the calling thread.
[[nodiscard]] inline double thread_cpu_now() {
  return cpu_now(CLOCK_THREAD_CPUTIME_ID);
}

}  // namespace sweepbench
