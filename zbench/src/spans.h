// The benchmark's own span recorder.
//
// Spans wrap the benchmark's calls into each layer's public functions
// (Compilation::fromSource, BatchSimulation::step, runFaultCampaign, ...);
// nothing inside libzeus is instrumented.  Spans are kept in memory and
// written out as Chrome trace_event JSON when the run ends.  While the
// tracer is off a span costs one branch and reads no clock, so untraced
// rounds of a traced run pay nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name;  ///< the wrapped call, e.g. "elaborate"
  const char* tag;   ///< design the call worked on, or ""
  uint32_t parent;   ///< index of the enclosing span, or kNoParent
  uint32_t round;    ///< round of the workload the span belongs to
  uint64_t startNs;
  uint64_t endNs;
};

/// Per-round values of many keys: [key][round].
using KeyedRounds = std::map<std::string, std::map<uint32_t, double>>;

class Tracer {
 public:
  static constexpr uint32_t kNoParent = ~0u;

  bool on = false;     ///< record spans opened from now on
  uint32_t round = 0;  ///< stamped on every span opened from now on
  std::vector<SpanRecord> spans;
  uint32_t open = kNoParent;  ///< innermost open span
  /// Counts recorded at the same call boundaries: counts[key][round].
  KeyedRounds counts;

  /// Adds `v` to this round's count `key` while the tracer is on.
  void count(const std::string& key, double v) {
    if (on) counts[key][round] += v;
  }

  /// Self time of every recorded span, keyed "name" or "name.tag", summed
  /// per round: result[key][round] in nanoseconds.  A span's self time is
  /// its duration minus the time its direct children cover.
  [[nodiscard]] KeyedRounds selfNsByRound() const;

  /// Writes every span as a Chrome trace_event JSON document; returns
  /// false when the file cannot be written.
  bool writeChromeTrace(const std::string& path) const;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, const char* tag = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  uint32_t index_ = Tracer::kNoParent;  ///< kNoParent = not recording
};

}  // namespace zbench
