// Host capacity probe: a fixed integer kernel from the benchmark's own
// code, timed on one thread and on two threads at once.  Taken at the
// start and end of every run, it shows host speed drift (ref_ms) and the
// parallel capacity two farm threads can actually get (scale_2t).
#include <thread>

#include "bench.h"

namespace zbench {

namespace {

constexpr uint64_t kIters = 20'000'000;

/// Kernel results land here so the compiler cannot drop the loops.
volatile uint64_t sink;

uint64_t kernel(uint64_t seed) {
  uint64_t h = seed;
  for (uint64_t i = 0; i < kIters; ++i) h = splitmix64(h ^ i);
  return h;
}

}  // namespace

HostSample probeHost() {
  const uint64_t t0 = nowNs();
  sink = kernel(1);
  const uint64_t t1 = nowNs();
  uint64_t second = 0;
  std::thread other([&second] { second = kernel(2); });
  sink = kernel(3);
  other.join();
  sink = second;
  const uint64_t t2 = nowNs();
  HostSample s;
  s.refMs = static_cast<double>(t1 - t0) / 1e6;
  s.scale2t = 2.0 * static_cast<double>(t1 - t0) / static_cast<double>(t2 - t1);
  return s;
}

}  // namespace zbench
