// E9 — levelized simulation: the statically scheduled evaluator against
// the firing rules and the naive fixpoint baseline, scalar and 64-lane
// batch, on the paper's ripple-carry adder (§3.2/§10).
//
// Unlike the google-benchmark binaries this one has a plain main() so the
// ctest smoke target can run it with a tiny cycle count and validate the
// emitted BENCH_sim.json.  Every evaluator is driven with the same
// pseudo-random stimulus and must produce the same checksum — the bench
// doubles as a coarse differential test.
//
// With --overhead it instead times the levelized engine in three
// configurations — a raw evaluator loop ("bare"), the Simulation facade
// with all observability off ("disabled") and with tracing + activity
// profiling on ("enabled") — and writes a zeus-bench-overhead-v1 JSON;
// the bench_metrics_smoke ctest asserts disabled stays within 5% of bare
// (the zero-overhead-when-disabled claim).
//
// Usage: bench_levelized [--cycles N] [--width W] [--out FILE] [--overhead]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/codegen/compiled.h"
#include "src/core/sim_farm.h"
#include "src/core/zeus.h"
#include "src/corpus/corpus.h"
#include "src/support/buildinfo.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  std::string name;
  uint64_t lanes = 1;
  uint64_t evaluatedCycles = 0;  ///< calls into the evaluator
  uint64_t laneCycles = 0;       ///< stimulus vectors simulated
  double seconds = 0;
  uint64_t checksum = 0;  ///< sum of `s` outputs over all lane cycles
  zeus::metrics::SimCounters counters;  ///< embedded in BENCH_sim.json
  /// Batch rows only: the layer split of one evaluated cycle, in µs.
  double inputUs = 0, stepUs = 0, outputUs = 0;

  [[nodiscard]] double cyclesPerSec() const {
    return seconds > 0 ? static_cast<double>(laneCycles) / seconds : 0;
  }
};

uint64_t xorshift(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

RunResult runScalar(const zeus::SimGraph& g, zeus::EvaluatorKind kind,
                    const char* name, int width, uint64_t cycles,
                    std::shared_ptr<const zeus::codegen::CompiledDesign>
                        compiled = nullptr) {
  zeus::Simulation::Options sopts;
  sopts.evaluator = kind;
  sopts.compiled = std::move(compiled);
  zeus::Simulation sim(g, sopts);
  const uint64_t mask =
      width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  uint64_t rng = 0xFEED;
  RunResult r;
  r.name = name;
  sim.setInput("cin", zeus::Logic::Zero);
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < cycles; ++i) {
    uint64_t x = xorshift(rng);
    sim.setInputUint("a", x & mask);
    sim.setInputUint("b", (x >> 17) & mask);
    sim.step();
    r.checksum += *sim.outputUint("s");
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.evaluatedCycles = cycles;
  r.laneCycles = cycles;
  r.counters = sim.metricsCounters();
  return r;
}

RunResult runBatch(const zeus::SimGraph& g, int width, uint64_t cycles,
                   const char* name = "levelized-batch",
                   std::shared_ptr<const zeus::codegen::CompiledDesign>
                       compiled = nullptr) {
  constexpr size_t kLanes = zeus::BatchSimulation::kMaxLanes;
  zeus::BatchSimulation sim(g, kLanes, std::move(compiled));
  const uint64_t mask =
      width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  uint64_t rng = 0xFEED;
  RunResult r;
  r.name = name;
  r.lanes = kLanes;
  sim.setInputAll("cin", zeus::Logic::Zero);
  const zeus::BatchSimulation::PortHandle a = sim.port("a"), b = sim.port("b"),
                                          s = sim.port("s");
  const uint64_t evalCycles = (cycles + kLanes - 1) / kLanes;
  double inputS = 0, stepS = 0, outputS = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < evalCycles; ++i) {
    const Clock::time_point tIn = Clock::now();
    for (size_t l = 0; l < kLanes; ++l) {
      uint64_t x = xorshift(rng);
      sim.setInputUint(l, a, x & mask);
      sim.setInputUint(l, b, (x >> 17) & mask);
    }
    const Clock::time_point tStep = Clock::now();
    sim.step();
    const Clock::time_point tOut = Clock::now();
    for (size_t l = 0; l < kLanes; ++l) {
      r.checksum += *sim.outputUint(l, s);
    }
    const Clock::time_point tEnd = Clock::now();
    inputS += std::chrono::duration<double>(tStep - tIn).count();
    stepS += std::chrono::duration<double>(tOut - tStep).count();
    outputS += std::chrono::duration<double>(tEnd - tOut).count();
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (evalCycles > 0) {
    const double perCycleUs = 1e6 / static_cast<double>(evalCycles);
    r.inputUs = inputS * perCycleUs;
    r.stepUs = stepS * perCycleUs;
    r.outputUs = outputS * perCycleUs;
  }
  r.evaluatedCycles = evalCycles;
  r.laneCycles = evalCycles * kLanes;
  r.counters = sim.metricsCounters();
  return r;
}

// ---------------------------------------------------------------------
// Native codegen backend (src/codegen/): the same stimulus through the
// hot-loaded compiled engine, scalar (lane 0 of the batch kernel) and
// full 64-lane batch.  Checksums must match the interpreters exactly —
// the tentpole claim is "faster, bit-identical".  On hosts without a
// C++ toolchain the block records available=false and the interpreter
// rows stand alone; the bench itself never fails for that.
// ---------------------------------------------------------------------

struct CodegenBenchResult {
  bool available = false;
  std::string error;      ///< why unavailable (verbatim loader error)
  bool cachedLoad = false;  ///< artifact came from the on-disk cache
  uint32_t optLevel = 1;
  double emitMs = 0, compileMs = 0, loadMs = 0;
  RunResult scalar;  ///< compiled engine, 1 live lane
  RunResult batch;   ///< compiled engine, 64 lanes
  bool checksumEqual = false;
};

/// Returns false only on a checksum divergence (a correctness bug); a
/// missing toolchain is recorded in `r` and the bench carries on.
bool runCodegenBench(const zeus::SimGraph& g, int width, uint64_t cycles,
                     uint64_t expectedChecksum, CodegenBenchResult& r) {
  zeus::codegen::CodegenOptions copts;
  std::string err;
  auto compiled = zeus::codegen::CompiledDesign::load(g, copts, err);
  if (!compiled) {
    r.error = err;
    std::fprintf(stderr,
                 "codegen unavailable (%s); skipping the compiled rows\n",
                 err.c_str());
    return true;
  }
  r.available = true;
  r.cachedLoad = compiled->cacheHit();
  r.optLevel = copts.optLevel;
  r.emitMs = static_cast<double>(compiled->emitUs()) / 1000.0;
  r.compileMs = static_cast<double>(compiled->compileUs()) / 1000.0;
  r.loadMs = static_cast<double>(compiled->loadUs()) / 1000.0;
  r.scalar = runScalar(g, zeus::EvaluatorKind::Compiled, "compiled", width,
                       cycles, compiled);
  r.batch = runBatch(g, width, cycles, "compiled-batch", compiled);
  r.checksumEqual = r.scalar.checksum == expectedChecksum &&
                    (r.batch.laneCycles != cycles ||
                     r.batch.checksum == expectedChecksum);
  if (!r.checksumEqual) {
    std::fprintf(stderr,
                 "codegen checksum mismatch: scalar %llx batch %llx != "
                 "interpreter %llx\n",
                 static_cast<unsigned long long>(r.scalar.checksum),
                 static_cast<unsigned long long>(r.batch.checksum),
                 static_cast<unsigned long long>(expectedChecksum));
    return false;
  }
  return true;
}

/// Parallel fault simulation throughput: sweep the full stuck-at universe
/// of the adder and report classified faults per second plus how full the
/// 63 fault lanes of each batch actually were.
struct CampaignResult {
  uint64_t faults = 0;
  uint64_t cycles = 0;
  uint64_t batches = 0;
  double seconds = 0;
  double laneUtilization = 0;  ///< faults / (batches * (lanes-1))
  uint64_t detected = 0;
  uint64_t masked = 0;
  uint64_t undetected = 0;
  double coverage = 0;

  [[nodiscard]] double faultsPerSec() const {
    return seconds > 0 ? static_cast<double>(faults) / seconds : 0;
  }
};

// ---------------------------------------------------------------------
// Optimizer benefit: the same stimulus through the levelized evaluator
// with the pass pipeline off and on.  The bench design wraps rippleCarry
// in a top that also instantiates a second, unread adder — exactly the
// kind of dead cone -O1 deletes — so the node-count delta (and the
// cycles/sec win that follows from it) is structural, not noise.
// Checksums must match across the two builds: this is the optimizer's
// differential test at bench scale.
// ---------------------------------------------------------------------

struct OptBenchResult {
  uint64_t nodesBefore = 0, nodesAfter = 0;
  uint64_t netsBefore = 0, netsAfter = 0;
  uint64_t folded = 0, removed = 0, dropped = 0;
  RunResult off;  ///< levelized scalar, -O0 build
  RunResult on;   ///< levelized scalar, -O1 build

  [[nodiscard]] double speedup() const {
    return off.cyclesPerSec() > 0 ? on.cyclesPerSec() / off.cyclesPerSec()
                                  : 0;
  }
};

/// benchtop = the live adder the outputs observe, plus a structurally
/// identical adder nothing reads.  DCE removes the spare's whole cone.
std::string optBenchSource(int width) {
  return std::string(zeus::corpus::kAdders) + R"(
benchtop(length) = COMPONENT (
    IN a,b: ARRAY[1..length] OF boolean; IN cin: boolean;
    OUT cout: boolean; OUT s: ARRAY[1..length] OF boolean) IS
  SIGNAL live, spare: rippleCarry(length);
BEGIN
  live(a,b,cin,cout,s);
  spare(a,b,0,*,*)
END;
SIGNAL bench: benchtop()" +
         std::to_string(width) + ");\n";
}

/// One build of the bench design at a given -O level.  The SimGraph
/// borrows the Design (g.design), so both live here together.
struct OptBuild {
  std::unique_ptr<zeus::Compilation> comp;
  std::unique_ptr<zeus::Design> design;
  zeus::OptReport rep;
  zeus::SimGraph g;
};

bool buildAtLevel(const std::string& src, int level, OptBuild& b) {
  b.comp = zeus::Compilation::fromSource("benchopt.zeus", src);
  if (!b.comp->ok()) {
    std::fprintf(stderr, "%s", b.comp->diagnosticsText().c_str());
    return false;
  }
  b.design = b.comp->elaborate("bench");
  if (!b.design) return false;
  zeus::OptOptions opts;
  opts.level = level;
  b.rep = b.comp->optimize(*b.design, opts);
  if (!b.rep.verified) {
    std::fprintf(stderr, "opt verifier failed at -O%d: %s\n", level,
                 b.rep.verifyError.c_str());
    return false;
  }
  b.g = zeus::buildSimGraph(*b.design, b.comp->diags());
  return !b.g.hasCycle;
}

bool runOptBench(int width, uint64_t cycles, OptBenchResult& r) {
  const std::string src = optBenchSource(width);
  OptBuild off, on;
  if (!buildAtLevel(src, 0, off) || !buildAtLevel(src, 1, on)) return false;
  const zeus::SimGraph& gOff = off.g;
  const zeus::SimGraph& gOn = on.g;
  const zeus::OptReport& repOn = on.rep;

  r.nodesBefore = repOn.nodesBefore;
  r.nodesAfter = repOn.nodesAfter;
  r.netsBefore = repOn.denseBefore;
  r.netsAfter = repOn.denseAfter;
  r.folded = repOn.totalFolded();
  r.removed = repOn.totalRemoved();
  r.dropped = repOn.totalDropped();
  r.off = runScalar(gOff, zeus::EvaluatorKind::Levelized, "opt-off", width,
                    cycles);
  r.on = runScalar(gOn, zeus::EvaluatorKind::Levelized, "opt-on", width,
                   cycles);
  if (r.off.checksum != r.on.checksum) {
    std::fprintf(stderr, "optimizer changed behaviour: checksum %llu != %llu\n",
                 static_cast<unsigned long long>(r.off.checksum),
                 static_cast<unsigned long long>(r.on.checksum));
    return false;
  }
  if (r.nodesAfter >= r.nodesBefore) {
    std::fprintf(stderr,
                 "optimizer removed nothing from the bench design "
                 "(%llu -> %llu nodes); the dead cone was not dead\n",
                 static_cast<unsigned long long>(r.nodesBefore),
                 static_cast<unsigned long long>(r.nodesAfter));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Multi-core farm scaling: the same design at 1/2/4 worker threads over
// 4 blocks × 64 lanes.  The farm's determinism contract means every row
// (and the scalar oracle) must produce the same merged checksum — the
// thread sweep is also a differential test.  Scaling is only meaningful
// when each block is real work and the host has the cores, so every lane
// runs a fixed kFarmCyclesPerLane (whatever --cycles says) and the block
// records host_cores plus a spin-loop capacity probe: the throughput 4
// threads get over 1 on this host, against which the checker judges the
// farm's speedup.
// ---------------------------------------------------------------------

constexpr uint64_t kFarmCyclesPerLane = 1000;

volatile uint64_t spinSink;

/// Spin-loop throughput (iterations/s) of `threads` threads running the
/// same register-only loop; no memory traffic, no shared state.
double spinThroughput(size_t threads) {
  constexpr uint64_t kIters = 20'000'000;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([t] {
      uint64_t x = 0x9E3779B97F4A7C15ull + t;
      for (uint64_t i = 0; i < kIters; ++i) xorshift(x);
      spinSink = x;
    });
  }
  for (std::thread& th : pool) th.join();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s > 0 ? static_cast<double>(threads * kIters) / s : 0;
}

/// The host's real 4-thread capacity: best-of-3 spin throughput at 4
/// threads over best-of-3 at 1 thread.
double spinCapacity4v1() {
  double one = 0, four = 0;
  for (int rep = 0; rep < 3; ++rep) {
    one = std::max(one, spinThroughput(1));
    four = std::max(four, spinThroughput(4));
  }
  return one > 0 ? four / one : 0;
}

struct FarmThreadRun {
  size_t threads = 0;
  double seconds = 0;
  double laneCyclesPerSec = 0;
  uint64_t checksum = 0;
};

struct FarmBenchResult {
  size_t lanes = 0;
  size_t lanesPerBlock = 0;
  size_t blocks = 0;
  uint64_t cyclesPerLane = 0;
  unsigned hostCores = 0;
  double capacity4v1 = 0;  ///< spin-loop probe, 4 threads over 1
  std::vector<FarmThreadRun> runs;  ///< threads = 1, 2, 4
  uint64_t oracleChecksum = 0;
  /// Per-block wall times merged over the whole thread sweep, for the
  /// BENCH_sim.json latency block.
  zeus::histogram::Histogram blockUs;

  [[nodiscard]] double speedup4v1() const {
    return !runs.empty() && runs.front().laneCyclesPerSec > 0
               ? runs.back().laneCyclesPerSec / runs.front().laneCyclesPerSec
               : 0;
  }
};

bool runFarmBench(const zeus::SimGraph& g, FarmBenchResult& r) {
  r.lanes = 4 * zeus::BatchSimulation::kMaxLanes;
  r.lanesPerBlock = zeus::BatchSimulation::kMaxLanes;
  r.blocks = 4;
  r.cyclesPerLane = kFarmCyclesPerLane;
  r.hostCores = std::thread::hardware_concurrency();
  r.capacity4v1 = spinCapacity4v1();
  zeus::FarmOptions opts;
  opts.lanes = r.lanes;
  opts.cycles = r.cyclesPerLane;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    opts.threads = threads;
    zeus::FarmReport rep = zeus::runFarm(g, opts);
    r.runs.push_back({threads, rep.seconds, rep.laneCyclesPerSec(),
                      rep.mergedChecksum()});
    r.blockUs.merge(rep.blockUs);
  }
  zeus::FarmReport oracle = zeus::runFarmScalarOracle(g, opts);
  r.oracleChecksum = oracle.mergedChecksum();
  for (const FarmThreadRun& run : r.runs) {
    if (run.checksum != r.oracleChecksum) {
      std::fprintf(stderr,
                   "farm checksum mismatch at %zu thread(s): %llx != "
                   "oracle %llx\n",
                   run.threads,
                   static_cast<unsigned long long>(run.checksum),
                   static_cast<unsigned long long>(r.oracleChecksum));
      return false;
    }
  }
  return true;
}

CampaignResult runCampaign(const zeus::SimGraph& g, uint64_t cycles) {
  zeus::FaultCampaignOptions opts;
  opts.cycles = cycles;
  CampaignResult r;
  const Clock::time_point t0 = Clock::now();
  zeus::FaultCampaignReport rep = zeus::runFaultCampaign(g, opts);
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.faults = rep.faults.size();
  r.cycles = rep.cycles;
  r.batches = rep.totalBatches;
  const uint64_t laneSlots = rep.totalBatches * (rep.lanes - 1);
  r.laneUtilization =
      laneSlots ? static_cast<double>(r.faults) / laneSlots : 0;
  r.detected = rep.countOf(zeus::FaultOutcome::Status::Detected);
  r.masked = rep.countOf(zeus::FaultOutcome::Status::Masked);
  r.undetected = rep.countOf(zeus::FaultOutcome::Status::Undetected);
  r.coverage = rep.coverage();
  return r;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// The layer split of a batch row ("" for scalar rows).
std::string layersJson(const RunResult& r) {
  if (r.lanes <= 1) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ", \"layers_us\": {\"input\": %.3f, \"step\": %.3f, "
                "\"output\": %.3f}",
                r.inputUs, r.stepUs, r.outputUs);
  return buf;
}

void emitJson(const std::string& path, int width, uint64_t cycles,
              const std::vector<RunResult>& runs,
              const CampaignResult& campaign, const OptBenchResult& opt,
              const FarmBenchResult& farm, const CodegenBenchResult& cg,
              double farmVsBatch, double speedupBatch,
              double speedupLevelized) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"zeus-bench-sim-v1\",\n"
      << "  \"build\": " << zeus::buildinfo::renderJson() << ",\n"
      << "  \"design\": \"rippleCarry\",\n"
      << "  \"width\": " << width << ",\n"
      << "  \"cycles\": " << cycles << ",\n"
      << "  \"evaluators\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"name\": \"" << r.name << "\", \"lanes\": " << r.lanes
        << ", \"evaluated_cycles\": " << r.evaluatedCycles
        << ", \"lane_cycles\": " << r.laneCycles
        << ", \"seconds\": " << r.seconds
        << ", \"cycles_per_sec\": " << r.cyclesPerSec()
        << ", \"checksum\": " << r.checksum << layersJson(r)
        << ",\n     \"metrics\": "
        << zeus::metrics::simCountersJson(r.counters) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"fault_campaign\": {\"faults\": " << campaign.faults
      << ", \"cycles\": " << campaign.cycles
      << ", \"batches\": " << campaign.batches
      << ", \"seconds\": " << campaign.seconds
      << ", \"faults_per_sec\": " << campaign.faultsPerSec()
      << ", \"lane_utilization\": " << campaign.laneUtilization
      << ", \"detected\": " << campaign.detected
      << ", \"masked\": " << campaign.masked
      << ", \"undetected\": " << campaign.undetected
      << ", \"coverage\": " << campaign.coverage << "},\n"
      << "  \"optimization\": {\n"
      << "    \"design\": \"benchtop\",\n"
      << "    \"nodes\": {\"before\": " << opt.nodesBefore
      << ", \"after\": " << opt.nodesAfter << "},\n"
      << "    \"nets\": {\"before\": " << opt.netsBefore
      << ", \"after\": " << opt.netsAfter << "},\n"
      << "    \"folded\": " << opt.folded
      << ", \"removed\": " << opt.removed
      << ", \"dropped\": " << opt.dropped << ",\n"
      << "    \"off\": {\"seconds\": " << opt.off.seconds
      << ", \"cycles_per_sec\": " << opt.off.cyclesPerSec()
      << ", \"checksum\": " << opt.off.checksum << "},\n"
      << "    \"on\": {\"seconds\": " << opt.on.seconds
      << ", \"cycles_per_sec\": " << opt.on.cyclesPerSec()
      << ", \"checksum\": " << opt.on.checksum << "},\n"
      << "    \"speedup_on_vs_off\": " << opt.speedup() << "\n"
      << "  },\n"
      << "  \"farm\": {\n"
      << "    \"lanes\": " << farm.lanes
      << ", \"lanes_per_block\": " << farm.lanesPerBlock
      << ", \"blocks\": " << farm.blocks
      << ", \"cycles_per_lane\": " << farm.cyclesPerLane
      << ", \"host_cores\": " << farm.hostCores
      << ", \"capacity_4_vs_1\": " << farm.capacity4v1 << ",\n"
      << "    \"threads\": [\n";
  for (size_t i = 0; i < farm.runs.size(); ++i) {
    const FarmThreadRun& t = farm.runs[i];
    out << "      {\"threads\": " << t.threads
        << ", \"seconds\": " << t.seconds
        << ", \"lane_cycles_per_sec\": " << t.laneCyclesPerSec
        << ", \"checksum\": " << t.checksum << "}"
        << (i + 1 < farm.runs.size() ? "," : "") << "\n";
  }
  std::vector<zeus::histogram::Snapshot> latency;
  latency.push_back(
      zeus::histogram::snapshot(farm.blockUs, "farm.block_us", "us"));
  out << "    ],\n"
      << "    \"oracle_checksum\": " << farm.oracleChecksum << ",\n"
      << "    \"speedup_4_vs_1\": " << farm.speedup4v1() << ",\n"
      << "    \"speedup_vs_batch64\": " << farmVsBatch << ",\n"
      << "    \"efficiency_vs_capacity\": "
      << (farm.capacity4v1 > 0 ? farm.speedup4v1() / farm.capacity4v1 : 0)
      << "\n"
      << "  },\n";
  const double levelizedCps = runs.size() > 2 ? runs[2].cyclesPerSec() : 0;
  const double batchCps = runs.size() > 3 ? runs[3].cyclesPerSec() : 0;
  out << "  \"codegen\": {\n"
      << "    \"available\": " << (cg.available ? "true" : "false") << ",\n"
      << "    \"error\": \"" << jsonEscape(cg.error) << "\",\n"
      << "    \"opt_level\": " << cg.optLevel
      << ", \"cached_load\": " << (cg.cachedLoad ? "true" : "false")
      << ",\n"
      << "    \"emit_ms\": " << cg.emitMs
      << ", \"compile_ms\": " << cg.compileMs
      << ", \"load_ms\": " << cg.loadMs << ",\n"
      << "    \"scalar\": {\"name\": \"" << cg.scalar.name
      << "\", \"lanes\": " << cg.scalar.lanes
      << ", \"lane_cycles\": " << cg.scalar.laneCycles
      << ", \"seconds\": " << cg.scalar.seconds
      << ", \"cycles_per_sec\": " << cg.scalar.cyclesPerSec()
      << ", \"checksum\": " << cg.scalar.checksum << ",\n     \"metrics\": "
      << zeus::metrics::simCountersJson(cg.scalar.counters) << "},\n"
      << "    \"batch\": {\"name\": \"" << cg.batch.name
      << "\", \"lanes\": " << cg.batch.lanes
      << ", \"lane_cycles\": " << cg.batch.laneCycles
      << ", \"seconds\": " << cg.batch.seconds
      << ", \"cycles_per_sec\": " << cg.batch.cyclesPerSec()
      << ", \"checksum\": " << cg.batch.checksum << layersJson(cg.batch)
      << ",\n     \"metrics\": "
      << zeus::metrics::simCountersJson(cg.batch.counters) << "},\n"
      << "    \"checksum_equal\": " << (cg.checksumEqual ? "true" : "false")
      << ",\n"
      << "    \"speedup_scalar_vs_levelized\": "
      << (levelizedCps > 0 ? cg.scalar.cyclesPerSec() / levelizedCps : 0)
      << ",\n"
      << "    \"speedup_vs_levelized\": "
      << (levelizedCps > 0 ? cg.batch.cyclesPerSec() / levelizedCps : 0)
      << ",\n"
      << "    \"speedup_vs_batch64\": "
      << (batchCps > 0 ? cg.batch.cyclesPerSec() / batchCps : 0) << "\n"
      << "  },\n"
      << "  \"latency\": "
      << zeus::histogram::renderLatencyBlock(latency, "  ") << ",\n"
      << "  \"speedup_levelized_vs_firing\": " << speedupLevelized << ",\n"
      << "  \"speedup_batch_vs_firing\": " << speedupBatch << "\n"
      << "}\n";
}

// ---------------------------------------------------------------------
// Overhead mode (--overhead): the zero-overhead-when-disabled guard.
// ---------------------------------------------------------------------

/// Raw levelized loop: evaluator + two-phase register latch, nothing
/// else.  This is the uninstrumented wall-clock the facade competes with.
double timeBare(const zeus::SimGraph& g, uint64_t cycles) {
  zeus::LevelizedEvaluator eval(g);
  const zeus::Netlist& nl = g.design->netlist;
  std::vector<zeus::Logic> inputValues(g.denseCount, zeus::Logic::Undef);
  std::vector<char> inputSet(g.denseCount, 0);
  std::vector<zeus::Logic> regValues(g.regNodes.size(), zeus::Logic::Undef);
  uint32_t clk = g.dense(g.design->clk);
  inputValues[clk] = zeus::Logic::One;
  inputSet[clk] = 1;
  uint32_t rset = g.dense(g.design->rset);
  inputValues[rset] = zeus::Logic::Zero;
  inputSet[rset] = 1;
  zeus::CycleSeeds seeds;
  seeds.inputValues = &inputValues;
  seeds.inputSet = &inputSet;
  seeds.regValues = &regValues;
  zeus::CycleResult result;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < cycles; ++i) {
    eval.evaluate(seeds, result);
    for (size_t k = 0; k < g.regNodes.size(); ++k) {
      const zeus::Node& reg = nl.node(g.regNodes[k]);
      uint32_t in = g.dense(reg.inputs[0]);
      if (result.activeCounts[in] > 0) {
        zeus::Logic v = result.netValues[in];
        regValues[k] = v == zeus::Logic::NoInfl ? zeus::Logic::Undef : v;
      }
    }
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The same per-cycle work through the Simulation facade.  Inputs stay
/// constant (the levelized schedule walks every node regardless), so the
/// measured difference is exactly the facade + instrumentation cost.
double timeFacade(const zeus::SimGraph& g, uint64_t cycles, bool observed) {
  zeus::Simulation::Options opts;
  opts.evaluator = zeus::EvaluatorKind::Levelized;
  opts.profileActivity = observed;
  zeus::Simulation sim(g, opts);
  const Clock::time_point t0 = Clock::now();
  sim.step(cycles);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int runOverhead(const zeus::SimGraph& g, uint64_t cycles,
                const std::string& outPath) {
  // Many short back-to-back bare/disabled pairs, alternating which side
  // runs first, each judged by its own ratio: host drift moves both
  // halves of a pair alike, and the median ignores the pairs a scheduler
  // hiccup or a noisy neighbour hit.  Enough pairs to cover ~128k cycles
  // a side, never fewer than 15, always odd.  Every reported figure is a
  // median.
  const int pairs =
      std::max<int>(15, static_cast<int>((uint64_t{1} << 17) /
                                         std::max<uint64_t>(cycles, 1))) |
      1;
  std::vector<double> bare, disabled, enabled, disabledRatio, enabledRatio;
  for (int rep = 0; rep < pairs; ++rep) {
    zeus::trace::setEnabled(false);
    double b = 0, d = 0;
    if (rep % 2 == 0) {
      b = timeBare(g, cycles);
      d = timeFacade(g, cycles, false);
    } else {
      d = timeFacade(g, cycles, false);
      b = timeBare(g, cycles);
    }
    zeus::trace::setEnabled(true);
    const double e = timeFacade(g, cycles, true);
    bare.push_back(b);
    disabled.push_back(d);
    enabled.push_back(e);
    disabledRatio.push_back(b > 0 ? d / b : 0);
    enabledRatio.push_back(b > 0 ? e / b : 0);
  }
  zeus::trace::setEnabled(false);
  const double bareMedian = median(bare);
  const double disabledMedian = median(disabled);
  const double enabledMedian = median(enabled);
  const double disabledOverBare = median(disabledRatio);
  const double enabledOverBare = median(enabledRatio);

  std::ofstream out(outPath);
  out << "{\n"
      << "  \"schema\": \"zeus-bench-overhead-v1\",\n"
      << "  \"cycles\": " << cycles << ",\n"
      << "  \"bare_seconds\": " << bareMedian << ",\n"
      << "  \"disabled_seconds\": " << disabledMedian << ",\n"
      << "  \"enabled_seconds\": " << enabledMedian << ",\n"
      << "  \"disabled_over_bare\": " << disabledOverBare << ",\n"
      << "  \"enabled_over_bare\": " << enabledOverBare << "\n"
      << "}\n";
  std::printf("bare      %.6fs\ndisabled  %.6fs (%.3fx)\nenabled   %.6fs "
              "(%.3fx)\nwrote %s\n",
              bareMedian, disabledMedian, disabledOverBare, enabledMedian,
              enabledOverBare, outPath.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t cycles = 20480;  // multiple of 64: batch checksum is comparable
  int width = 32;
  bool overhead = false;
  std::string outPath;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (!std::strcmp(argv[i], "--cycles")) {
      const char* v = next();
      if (v) cycles = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(argv[i], "--width")) {
      const char* v = next();
      if (v) width = std::atoi(v);
    } else if (!std::strcmp(argv[i], "--out")) {
      const char* v = next();
      if (v) outPath = v;
    } else if (!std::strcmp(argv[i], "--overhead")) {
      overhead = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_levelized [--cycles N] [--width W] "
                   "[--out FILE] [--overhead]\n");
      return 2;
    }
  }
  if (outPath.empty()) {
    outPath = overhead ? "BENCH_overhead.json" : "BENCH_sim.json";
  }

  std::string src = std::string(zeus::corpus::kAdders) +
                    "SIGNAL adder: rippleCarry(" + std::to_string(width) +
                    ");\n";
  auto comp = zeus::Compilation::fromSource("bench.zeus", src);
  if (!comp->ok()) {
    std::fprintf(stderr, "%s", comp->diagnosticsText().c_str());
    return 1;
  }
  auto design = comp->elaborate("adder");
  if (!design) return 1;
  zeus::SimGraph g = zeus::buildSimGraph(*design, comp->diags());
  if (g.hasCycle) return 1;

  if (overhead) return runOverhead(g, cycles, outPath);

  std::vector<RunResult> runs;
  runs.push_back(
      runScalar(g, zeus::EvaluatorKind::Naive, "naive", width, cycles));
  runs.push_back(
      runScalar(g, zeus::EvaluatorKind::Firing, "firing", width, cycles));
  runs.push_back(runScalar(g, zeus::EvaluatorKind::Levelized, "levelized",
                           width, cycles));
  runs.push_back(runBatch(g, width, cycles));

  // Identical stimulus must give identical checksums everywhere; a
  // mismatch means an evaluator is wrong, so fail loudly.
  for (const RunResult& r : runs) {
    if (r.laneCycles == cycles && r.checksum != runs[0].checksum) {
      std::fprintf(stderr, "checksum mismatch: %s\n", r.name.c_str());
      return 1;
    }
  }

  // The native codegen backend against the same stimulus; bit-identical
  // checksums are a hard requirement, a missing toolchain is not.
  CodegenBenchResult cg;
  if (!runCodegenBench(g, width, cycles, runs[0].checksum, cg)) return 1;

  // Fault-campaign throughput on the same design: 16 stimulus cycles per
  // fault keeps the smoke run fast while exercising full batches.
  CampaignResult campaign = runCampaign(g, /*cycles=*/16);

  // Optimizer benefit: levelized cycles/sec with the pass pipeline off
  // and on, over a design carrying a provably dead adder cone.
  OptBenchResult opt;
  if (!runOptBench(width, cycles, opt)) return 1;

  // Farm scaling sweep (1/2/4 threads, 4 blocks × 64 lanes) plus the
  // scalar-oracle checksum cross-check.
  FarmBenchResult farm;
  if (!runFarmBench(g, farm)) return 1;

  const double firing = runs[1].cyclesPerSec();
  const double speedupLevelized =
      firing > 0 ? runs[2].cyclesPerSec() / firing : 0;
  const double speedupBatch =
      firing > 0 ? runs[3].cyclesPerSec() / firing : 0;
  const double batch64 = runs[3].cyclesPerSec();
  const double farmVsBatch =
      batch64 > 0 && !farm.runs.empty()
          ? farm.runs.back().laneCyclesPerSec / batch64
          : 0;
  emitJson(outPath, width, cycles, runs, campaign, opt, farm, cg,
           farmVsBatch, speedupBatch, speedupLevelized);

  for (const RunResult& r : runs) {
    std::printf("%-18s %12.0f cycles/s  (%llu lane-cycles in %.3fs)\n",
                r.name.c_str(), r.cyclesPerSec(),
                static_cast<unsigned long long>(r.laneCycles), r.seconds);
    if (r.lanes > 1) {
      std::printf("%-18s input %.2f / step %.2f / output %.2f us per batch "
                  "cycle\n",
                  "", r.inputUs, r.stepUs, r.outputUs);
    }
  }
  std::printf("levelized vs firing: %.2fx\n", speedupLevelized);
  std::printf("batch-64  vs firing: %.2fx\n", speedupBatch);
  if (cg.available) {
    const double lvl = runs[2].cyclesPerSec();
    std::printf("%-18s %12.0f cycles/s  (%llu lane-cycles in %.3fs)\n",
                cg.scalar.name.c_str(), cg.scalar.cyclesPerSec(),
                static_cast<unsigned long long>(cg.scalar.laneCycles),
                cg.scalar.seconds);
    std::printf("%-18s %12.0f cycles/s  (%llu lane-cycles in %.3fs)\n",
                cg.batch.name.c_str(), cg.batch.cyclesPerSec(),
                static_cast<unsigned long long>(cg.batch.laneCycles),
                cg.batch.seconds);
    std::printf("compiled  vs levelized: %.2fx scalar, %.2fx batch "
                "(emit %.1fms, compile %.1fms, load %.1fms%s)\n",
                lvl > 0 ? cg.scalar.cyclesPerSec() / lvl : 0,
                lvl > 0 ? cg.batch.cyclesPerSec() / lvl : 0, cg.emitMs,
                cg.compileMs, cg.loadMs,
                cg.cachedLoad ? ", cached" : "");
  }
  for (const FarmThreadRun& t : farm.runs) {
    std::printf("farm %zut            %12.0f lane-cycles/s  (%zu lanes in "
                "%.3fs)\n",
                t.threads, t.laneCyclesPerSec, farm.lanes, t.seconds);
  }
  std::printf("farm 4t vs 1t:       %.2fx (%u host cores, spin-loop "
              "capacity %.2fx)\n",
              farm.speedup4v1(), farm.hostCores, farm.capacity4v1);
  std::printf("farm 4t vs batch-64: %.2fx (reference only)\n", farmVsBatch);
  std::printf(
      "fault campaign     %12.0f faults/s  (%llu faults, %.0f%% lanes "
      "used, %.1f%% coverage)\n",
      campaign.faultsPerSec(),
      static_cast<unsigned long long>(campaign.faults),
      100.0 * campaign.laneUtilization, 100.0 * campaign.coverage);
  std::printf(
      "optimizer          %12.0f -> %.0f cycles/s (%.2fx; %llu -> %llu "
      "nodes, %llu folded, %llu removed, %llu nets dropped)\n",
      opt.off.cyclesPerSec(), opt.on.cyclesPerSec(), opt.speedup(),
      static_cast<unsigned long long>(opt.nodesBefore),
      static_cast<unsigned long long>(opt.nodesAfter),
      static_cast<unsigned long long>(opt.folded),
      static_cast<unsigned long long>(opt.removed),
      static_cast<unsigned long long>(opt.dropped));
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
