// zeus_bench: one run of one benchmark workload.
//
//   zeus_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// Set-up (compile, engines, one discarded warm-up round) is timed once
// before the timed loop and, in an untraced run, 20 more times spread
// over it; the median is reported.  The timed loop runs whole rounds
// until S seconds have passed.  With --trace 0 the last stdout line reports the
// end-to-end metrics; with --trace 1 every other round is traced and the
// line reports the per-layer metrics and the tracing overhead.  Earlier
// lines carry the host capacity probe and the run's shape.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace zbench {
namespace {

/// Set-ups timed during an untraced timed loop.  With the set-up that
/// builds the measured workload the count is odd, so the median is one
/// set-up's time.
constexpr int kLoopSetups = 20;
/// Traced rounds of each other workload in a traced run.
constexpr uint32_t kProbeRounds = 5;

/// BENCHMARK.json "per_layer", in order.
const char* const kPerLayer[] = {
    "frontend.fromsource_ms",
    "elab.elaborate_ms",
    "transform.optimize_ms",
    "transform.nodes_removed",
    "sim.graph_build_ms",
    "sim.dense_nets",
    "sim.max_level",
    "batch_sim.input_us.ripple32",
    "batch_sim.step_us.ripple32",
    "batch_sim.output_us.ripple32",
    "batch_sim.input_us.am2901",
    "batch_sim.step_us.am2901",
    "batch_sim.output_us.am2901",
    "sim.node_firings_per_cycle.ripple32",
    "sim.net_resolutions_per_cycle.ripple32",
    "sim.node_firings_per_cycle.am2901",
    "sim.net_resolutions_per_cycle.am2901",
    "fault.campaign_ms",
    "fault.us_per_batch_cycle",
    "fault.batches",
    "fault.lane_utilization",
    "fault.coverage",
    "farm.run_ms",
    "farm.lane_cycles_per_s",
    "serve.compile_ms",
    "serve.overhead_ms",
    "serve.cache_hit_ratio",
    "harness.self_ms",
    "trace.overhead_pct",
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string traceOut;
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveSeed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        haveSeed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = val == "0" ? 0 : val == "1" ? 1 : -1;
      } else if (key == "--trace-out") {
        a.traceOut = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && haveSeed && a.seconds > 0 && a.trace >= 0 &&
         makeWorkload(a.workload) != nullptr;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t fnv(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001B3ull;
  return h;
}

struct Totals {
  double ms = 0;
  uint64_t items = 0;
  void add(const std::vector<OpRecord>& ops) {
    for (const OpRecord& r : ops) {
      ms += r.ms;
      items += r.items;
    }
  }
  [[nodiscard]] double perSecond() const {
    return ms > 0 ? static_cast<double>(items) / ms * 1e3 : 0;
  }
};

int run(const Args& args) {
  const uint64_t base = splitmix64(args.seed ^ fnv(args.workload));
  const bool traced = args.trace == 1;
  const HostSample hostStart = probeHost();

  // One set-up from scratch: build the workload, then run one discarded
  // warm-up round.  Every set-up draws from the same seed, so all build
  // the same inputs.
  Tracer tracer;
  std::vector<double> setupS;
  auto setUp = [&](bool recordSpans) {
    Rng setupRng{base ^ 1};
    const uint64_t t0 = nowNs();
    std::unique_ptr<Workload> fresh = makeWorkload(args.workload);
    tracer.on = recordSpans;
    fresh->setup(tracer, setupRng);
    tracer.on = false;
    std::vector<OpRecord> warmup;
    fresh->round(tracer, setupRng, warmup);
    setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    return fresh;
  };
  // The set-up that builds the measured workload; a traced run records
  // its spans.
  std::unique_ptr<Workload> w = setUp(traced);
  w->prepareReferences();

  // The timed loop: whole rounds until the deadline.  A traced run
  // alternates untraced and traced rounds, so both see the same host
  // drift and their throughput ratio is the tracing overhead.  An
  // untraced run times kLoopSetups more set-ups between rounds, evenly
  // spaced, so setup_s samples the host's drift over the whole run as
  // the ops do.  Each set-up is outside every op's timer.
  Rng loopRng{base ^ 3};
  std::vector<OpRecord> plain, spanned;
  uint32_t rounds = 0;
  int loopSetups = 0;
  const uint64_t runNs = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t start = nowNs(), deadline = start + runNs;
  while (nowNs() < deadline) {
    ++rounds;
    tracer.round = rounds;
    tracer.on = traced && rounds % 2 == 0;
    w->round(tracer, loopRng, tracer.on ? spanned : plain);
    if (!traced && loopSetups < kLoopSetups &&
        nowNs() >= start + runNs / (kLoopSetups + 1) * (loopSetups + 1)) {
      setUp(false);
      ++loopSetups;
    }
  }
  tracer.on = false;
  for (; !traced && loopSetups < kLoopSetups; ++loopSetups) setUp(false);

  Rng checkRng{base ^ 4};
  uint64_t failed = w->finalChecks(checkRng);
  uint64_t attempted = plain.size() + spanned.size();
  // The process's peak, which includes one set-up's workload alive next
  // to `w`.
  const double rssMb = peakRssMb();

  Metrics metrics;
  if (traced) {
    w->layerMetrics(tracer, metrics);
    const auto self = tracer.selfNsByRound();
    put(metrics, "harness.self_ms",
        medianOf(self, "op", 1e-6 / static_cast<double>(w->opsPerRound())),
        "ms");
    Totals p, s;
    p.add(plain);
    s.add(spanned);
    put(metrics, "trace.overhead_pct",
        (p.perSecond() / s.perSecond() - 1) * 100, "%");
    if (!args.traceOut.empty() && !tracer.writeChromeTrace(args.traceOut)) {
      std::fprintf(stderr, "zeus_bench: cannot write %s\n",
                   args.traceOut.c_str());
    }
    // Layers this workload bypasses: each other workload is set up like
    // the measured one (its set-up compiles traced, then one discarded
    // warm-up round), then runs kProbeRounds traced rounds, so every
    // per-layer metric is a median over warm rounds.  Probe ops are
    // checked and counted like any other.
    for (const std::string& other : workloadNames()) {
      if (other == args.workload) continue;
      Tracer pt;
      Rng probeRng{base ^ fnv(other)};
      std::unique_ptr<Workload> pw = makeWorkload(other);
      pt.on = true;
      pw->setup(pt, probeRng);
      pt.on = false;
      std::vector<OpRecord> probeOps;
      pw->round(pt, probeRng, probeOps);
      probeOps.clear();
      pw->prepareReferences();
      pt.on = true;
      for (uint32_t k = 1; k <= kProbeRounds; ++k) {
        pt.round = k;
        pw->round(pt, probeRng, probeOps);
      }
      pt.on = false;
      for (const OpRecord& r : probeOps) failed += r.ok ? 0 : 1;
      attempted += probeOps.size();
      failed += pw->finalChecks(probeRng);
      pw->layerMetrics(pt, metrics);
    }
  }

  std::vector<double> opMs;
  for (const auto* ops : {&plain, &spanned}) {
    for (const OpRecord& r : *ops) {
      opMs.push_back(r.ms);
      failed += r.ok ? 0 : 1;
    }
  }
  if (!traced) {
    Totals t;
    t.add(plain);
    metrics.emplace("setup_s", MetricValue{median(setupS), "s"});
    metrics.emplace("items_per_s", MetricValue{t.perSecond(), "1/s"});
    metrics.emplace("op_ms.p50", MetricValue{percentile(opMs, 50), "ms"});
    metrics.emplace("op_ms.p90", MetricValue{percentile(opMs, 90), "ms"});
    metrics.emplace("peak_rss_mb", MetricValue{rssMb, "MB"});
  }

  const HostSample hostEnd = probeHost();
  std::printf(
      "{\"host\": {\"ref_ms\": {\"start\": %s, \"end\": %s}, "
      "\"scale_2t\": {\"start\": %s, \"end\": %s}}}\n",
      num(hostStart.refMs).c_str(), num(hostEnd.refMs).c_str(),
      num(hostStart.scale2t).c_str(), num(hostEnd.scale2t).c_str());

  const double p90 = percentile(opMs, 90);
  size_t beyond = 0;
  double minMs = opMs.empty() ? 0 : opMs.front();
  for (double v : opMs) {
    beyond += v > p90 ? 1 : 0;
    minMs = std::min(minMs, v);
  }
  std::string setupList;
  for (double s : setupS) setupList += (setupList.empty() ? "" : ", ") + num(s);
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"rounds\": %u, \"ops_per_round\": %zu, \"timed_ops\": %zu, "
      "\"op_ms_min\": %s, \"ops_beyond_p90\": %zu, \"setup_s_all\": [%s]}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, rounds, w->opsPerRound(), opMs.size(), num(minMs).c_str(),
      beyond, setupList.c_str());

  std::string out = "{";
  auto emit = [&](const std::string& name) {
    auto it = metrics.find(name);
    if (it == metrics.end()) {
      std::fprintf(stderr, "zeus_bench: metric %s not measured\n",
                   name.c_str());
      return;
    }
    out += (out.size() > 1 ? ", \"" : "\"") + name + "\": {\"value\": " +
           num(it->second.value) + ", \"unit\": \"" + it->second.unit + "\"}";
  };
  if (traced) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name :
         {"setup_s", "items_per_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb"}) {
      emit(name);
    }
  }
  out += "}";
  const bool correct = failed == 0 && attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), out.c_str());
  return 0;
}

}  // namespace
}  // namespace zbench

int main(int argc, char** argv) {
  zbench::Args args;
  if (!zbench::parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: zeus_bench --workload "
                 "compile-scaled|sim-ports|fault-campaign|serve-farm "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  try {
    return zbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zeus_bench: %s\n", e.what());
    return 1;
  }
}
