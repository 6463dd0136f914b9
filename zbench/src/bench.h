// Shared pieces of the repository benchmark: the seeded generator, the
// design list, the traced compile pipeline, the workload interface and
// the reference checks every op's output is compared against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "spans.h"
#include "src/core/zeus.h"

namespace zbench {

inline uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The benchmark's only source of randomness, rooted at --seed.
struct Rng {
  uint64_t state;
  uint64_t next() { return splitmix64(state++); }
  uint64_t below(uint64_t n) { return next() % n; }
};

/// Fisher-Yates shuffle drawn from `rng`.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// A design the benchmark compiles: corpus family plus instantiation.
struct DesignSpec {
  const char* tag;  ///< short name used in spans and metric names
  std::string source;
  const char* top;
};

/// Looks up one of the benchmark's designs by tag; throws on unknown tags.
DesignSpec designSpec(const std::string& tag);

/// Everything one compile produces.  Members are declared in borrow
/// order, so destruction runs graph, design, then compilation.
struct Built {
  std::unique_ptr<zeus::Compilation> comp;
  std::unique_ptr<zeus::Design> design;
  std::unique_ptr<zeus::SimGraph> graph;
  zeus::OptReport opt;
};

/// fromSource -> elaborate -> optimize -> buildSimGraph, each call in its
/// own span tagged with the design.  Records the transform and graph
/// counts on the tracer.  Throws std::runtime_error on any diagnostic.
Built compileTraced(const DesignSpec& spec, int optLevel, Tracer& t);

/// One timed op of a workload.
struct OpRecord {
  double ms = 0;       ///< wall time of the op alone, checks excluded
  uint64_t items = 0;  ///< work units the op completed
  bool ok = true;      ///< false: the op threw or its output was wrong
};

struct MetricValue {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, MetricValue>;

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Median over rounds of one key (a span's self nanoseconds or a count),
/// scaled; nullopt when the key never recorded.
std::optional<double> medianOf(const KeyedRounds& m, const std::string& key,
                               double scale = 1);
/// One key's per-round values; empty when the key never recorded.
const std::map<uint32_t, double>& rounds(const KeyedRounds& m,
                                         const std::string& key);
/// Median over rounds of num/den, both tracer counts or span keys.
std::optional<double> ratioMedian(const std::map<uint32_t, double>& num,
                                  const std::map<uint32_t, double>& den,
                                  double scale);

/// Adds a measured metric; a value that was never measured is left out
/// (the harness then reports it missing on stderr).
void put(Metrics& out, const std::string& name, std::optional<double> v,
         const char* unit);

/// The compile-layer metrics (frontend, elab, transform, sim graph) from
/// whatever compileTraced recorded on `t`, summed per round.
void compileLayerMetrics(const Tracer& t, Metrics& out);

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual size_t opsPerRound() const = 0;
  /// Builds designs, engines and caches.  Compiles go through
  /// compileTraced, so a traced set-up reports its compile layers.
  virtual void setup(Tracer& t, Rng& rng) = 0;
  /// Untimed: builds the references the checks compare against.
  virtual void prepareReferences() {}
  /// One round: the workload's whole op mix, in an order drawn from rng.
  /// Each op is timed alone and checked after its timer stops.
  virtual void round(Tracer& t, Rng& rng, std::vector<OpRecord>& ops) = 0;
  /// Once-per-run checks made after the timed loop; returns how many
  /// checked ops failed them.
  virtual uint64_t finalChecks(Rng& /*rng*/) { return 0; }
  /// Per-layer metrics of the layers this workload exercises.
  virtual void layerMetrics(const Tracer& t, Metrics& out) const = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();
/// nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

// -- reference checks (oracles.cpp); none of them is on a timed path --

/// One input port and the value a lane drives on it in one cycle.
struct PortValue {
  std::string port;
  uint64_t value;
};

/// Replays one lane's stimulus (RSET on cycle 0, then `inputs[c]`) on a
/// scalar firing-evaluator Simulation and compares every output port's
/// outputUint with `outputs[c]`, in design port order.
bool scalarLaneMatches(
    const zeus::SimGraph& graph,
    const std::vector<std::vector<PortValue>>& inputs,
    const std::vector<std::vector<std::optional<uint64_t>>>& outputs);

/// Checksum of every output bit over `cycles` cycles of seeded random
/// stimulus on the firing evaluator (cycle 0 pulses RSET).
uint64_t firingChecksum(const zeus::SimGraph& graph, uint64_t seed,
                        uint64_t cycles);

/// Replays fault `index` of a runFaultCampaign report on two scalar
/// firing Simulations (golden and faulty) fed the campaign's stimulus for
/// that fault's batch, and checks that the first definite output
/// difference appears at the reported detector and cycle.
bool faultReplayMatches(const zeus::SimGraph& graph,
                        const zeus::FaultCampaignOptions& opts,
                        const zeus::FaultCampaignReport& report,
                        size_t index);

// -- host capacity probe (host_probe.cpp) --

struct HostSample {
  double refMs = 0;    ///< reference kernel, one thread, milliseconds
  double scale2t = 0;  ///< two-thread throughput over one-thread
};

HostSample probeHost();

}  // namespace zbench
