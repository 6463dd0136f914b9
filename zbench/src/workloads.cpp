// The four workloads.  Every run of a workload has the identical op mix:
// whole rounds over a fixed design or request list, in an order drawn
// from the run's seed.  Every op is timed alone and its output is checked
// against a reference after its timer stops.
#include <algorithm>
#include <array>
#include <stdexcept>

#include "bench.h"
#include "src/core/batch_serve.h"
#include "src/core/sim_farm.h"
#include "src/corpus/corpus.h"

namespace zbench {

using namespace zeus;

namespace {

double msSince(uint64_t t0) { return static_cast<double>(nowNs() - t0) / 1e6; }

// ---------------------------------------------------------------------
// compile-scaled: fromSource -> elaborate -> optimize (-O1) ->
// buildSimGraph on nineteen designs of 1.5-19 ms each.  No engine runs.
// ---------------------------------------------------------------------

class CompileScaled final : public Workload {
 public:
  [[nodiscard]] size_t opsPerRound() const override { return kTags.size(); }

  void setup(Tracer&, Rng&) override {
    for (const char* tag : kTags) specs_.push_back(designSpec(tag));
  }

  void round(Tracer& t, Rng& rng, std::vector<OpRecord>& ops) override {
    std::vector<size_t> order(specs_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    for (size_t i : order) {
      const DesignSpec& spec = specs_[i];
      OpRecord r;
      Built b;
      const uint64_t t0 = nowNs();
      try {
        Span op(t, "op");
        b = compileTraced(spec, 1, t);
      } catch (const std::exception&) {
        r.ok = false;
      }
      r.ms = msSince(t0);
      if (r.ok) {
        // Every op must reproduce the first compile of its design; that
        // first compile is checked against -O0 by finalChecks().
        const Shape s{b.opt.nodesAfter, b.graph->denseCount,
                      b.graph->maxLevel};
        auto [it, first] = shapes_.emplace(spec.tag, s);
        r.ok = it->second == s;
        if (first) kept_.emplace(spec.tag, std::move(b));
        r.items = r.ok ? 1 : 0;
      }
      ops.push_back(r);
    }
  }

  uint64_t finalChecks(Rng& rng) override {
    // The -O1 graph must simulate to the same checksum as the -O0 graph
    // on the firing evaluator, once per design per run.
    uint64_t failed = 0;
    Tracer off;
    for (const auto& [tag, o1] : kept_) {
      const uint64_t seed = rng.next();
      try {
        Built o0 = compileTraced(designSpec(tag), 0, off);
        if (firingChecksum(*o0.graph, seed, kCheckCycles) !=
            firingChecksum(*o1.graph, seed, kCheckCycles)) {
          ++failed;
        }
      } catch (const std::exception&) {
        ++failed;
      }
    }
    return failed;
  }

  void layerMetrics(const Tracer& t, Metrics& out) const override {
    compileLayerMetrics(t, out);
  }

 private:
  // Eight corpus families at one to four sizes each, chosen so that the
  // designs' compile times step up by about 13% each from dicttree(8) to
  // htree(512).  Op times then spread almost evenly on a log scale
  // instead of forming a few clusters, so op_ms.p50 moves smoothly with
  // the host's speed rather than jumping from one cluster to the next
  // when a run mixes a fast and a slow host state.  The count is odd, so
  // the median is one design's op time.
  static constexpr std::array<const char*, 19> kTags = {
      "am2901",    "dict8",    "matvec12", "ripple48",  "stack32",
      "ripple64",  "htree256", "matvec16", "sorter8",   "routing16",
      "stack64",   "ripple128", "dict32",  "ripple160", "matvec24",
      "sorter12",  "routing32", "sorter14", "htree512"};
  static constexpr uint64_t kCheckCycles = 16;

  struct Shape {
    uint64_t nodes;
    size_t dense;
    uint32_t maxLevel;
    bool operator==(const Shape&) const = default;
  };

  std::vector<DesignSpec> specs_;
  std::map<std::string, Shape> shapes_;
  std::map<std::string, Built> kept_;
};

// ---------------------------------------------------------------------
// sim-ports: 64 batch cycles of a 64-lane BatchSimulation per op, through
// the per-lane setInputUint/setInput and outputUint calls.  A round is
// one rippleCarry(32) op (few wide ports) and two am2901 ops (many narrow
// ports, registers and multiplex nets), in seeded order.  A rippleCarry
// op takes about 1.5 times as long, so the two designs get similar time,
// and op_ms.p50 falls inside the am2901 cluster.  Compiles happen only in
// set-up.
// ---------------------------------------------------------------------

class SimPorts final : public Workload {
 public:
  [[nodiscard]] size_t opsPerRound() const override { return kMix.size(); }

  void setup(Tracer& t, Rng&) override {
    for (size_t d = 0; d < kTags.size(); ++d) {
      Engine& e = engines_[d];
      e.built = compileTraced(designSpec(kTags[d]), 1, t);
      e.sim = std::make_unique<BatchSimulation>(*e.built.graph, kLanes);
      for (const Port& p : e.built.design->ports) {
        (p.mode == ast::ParamMode::In ? e.inputs : e.outputs).push_back(&p);
      }
    }
  }

  void round(Tracer& t, Rng& rng, std::vector<OpRecord>& ops) override {
    std::vector<size_t> order(kMix.begin(), kMix.end());
    shuffle(order, rng);
    for (size_t d : order) ops.push_back(op(d, t, rng));
  }

  void layerMetrics(const Tracer& t, Metrics& out) const override {
    compileLayerMetrics(t, out);
    const auto self = t.selfNsByRound();
    for (size_t d = 0; d < kTags.size(); ++d) {
      const std::string s = kTags[d];
      // Per-round sums over this design's ops -> per batch cycle.
      const double cycles = static_cast<double>(
          kCycles * std::count(kMix.begin(), kMix.end(), d));
      for (const char* group : {"input", "step", "output"}) {
        put(out, "batch_sim." + std::string(group) + "_us." + s,
            medianOf(self, std::string(group) + "." + s, 1e-3 / cycles),
            "us");
      }
      for (const char* c : {"sim.node_firings_per_cycle.",
                            "sim.net_resolutions_per_cycle."}) {
        put(out, c + s, medianOf(t.counts, c + s, 1.0 / cycles), "count");
      }
    }
  }

 private:
  static constexpr std::array<const char*, 2> kTags = {"ripple32", "am2901"};
  /// One round's ops, as indices into kTags.
  static constexpr std::array<size_t, 3> kMix = {0, 1, 1};
  static constexpr size_t kLanes = 64;
  static constexpr size_t kCycles = 64;

  struct Engine {
    Built built;
    std::unique_ptr<BatchSimulation> sim;
    std::vector<const Port*> inputs;   ///< design order
    std::vector<const Port*> outputs;  ///< design order
  };

  OpRecord op(size_t d, Tracer& t, Rng& rng) {
    Engine& e = engines_[d];
    const char* tag = kTags[d];
    const size_t nIn = e.inputs.size(), nOut = e.outputs.size();
    // Stimulus [cycle][lane][input port], drawn before the timer starts.
    stim_.resize(kCycles * kLanes * nIn);
    for (size_t i = 0; i < stim_.size(); ++i) {
      const size_t width = e.inputs[i % nIn]->nets.size();
      stim_[i] = rng.next() & (width >= 64 ? ~uint64_t{0}
                                           : (uint64_t{1} << width) - 1);
    }
    got_.assign(kCycles * kLanes * nOut, std::nullopt);
    BatchSimulation& sim = *e.sim;
    sim.resetStats();

    OpRecord r;
    const uint64_t t0 = nowNs();
    try {
      Span op(t, "op");
      sim.reset();
      for (size_t c = 0; c < kCycles; ++c) {
        {
          Span s(t, "input", tag);
          sim.setRset(c == 0);
          const uint64_t* v = &stim_[c * kLanes * nIn];
          for (size_t lane = 0; lane < kLanes; ++lane) {
            for (const Port* p : e.inputs) {
              if (p->nets.size() == 1) {
                sim.setInput(lane, p->name, logicFromBool(*v & 1));
              } else {
                sim.setInputUint(lane, p->name, *v);
              }
              ++v;
            }
          }
        }
        {
          Span s(t, "step", tag);
          sim.step(1);
        }
        {
          Span s(t, "output", tag);
          std::optional<uint64_t>* g = &got_[c * kLanes * nOut];
          for (size_t lane = 0; lane < kLanes; ++lane) {
            for (const Port* p : e.outputs) {
              *g++ = sim.outputUint(lane, p->name);
            }
          }
        }
      }
    } catch (const std::exception&) {
      r.ok = false;
    }
    r.ms = msSince(t0);
    if (!r.ok) return r;

    const EvalStats& st = sim.stats();
    t.count(std::string("sim.node_firings_per_cycle.") + tag,
            static_cast<double>(st.nodeFirings));
    t.count(std::string("sim.net_resolutions_per_cycle.") + tag,
            static_cast<double>(st.netResolutions));
    r.ok = d == 0 ? adderCorrect(e) : laneMatchesScalar(e, rng.below(kLanes));
    r.items = r.ok ? kLanes * kCycles : 0;
    return r;
  }

  /// rippleCarry(32): every lane's {cout, s} equals the integer a+b+cin.
  bool adderCorrect(const Engine& e) const {
    const size_t nIn = e.inputs.size(), nOut = e.outputs.size();
    auto index = [](const std::vector<const Port*>& ports, const char* n) {
      size_t i = 0;
      while (i < ports.size() && ports[i]->name != n) ++i;
      return i;
    };
    const size_t ia = index(e.inputs, "a"), ib = index(e.inputs, "b"),
                 ic = index(e.inputs, "cin"), is = index(e.outputs, "s"),
                 ico = index(e.outputs, "cout");
    if (ia == nIn || ib == nIn || ic == nIn || is == nOut || ico == nOut) {
      return false;
    }
    for (size_t k = 0; k < kCycles * kLanes; ++k) {
      const uint64_t* v = &stim_[k * nIn];
      const std::optional<uint64_t>* g = &got_[k * nOut];
      if (!g[is] || !g[ico]) return false;
      if (*g[is] + (*g[ico] << 32) != v[ia] + v[ib] + v[ic]) return false;
    }
    return true;
  }

  /// am2901: one seeded lane replayed on the scalar firing evaluator.
  bool laneMatchesScalar(const Engine& e, size_t lane) const {
    const size_t nIn = e.inputs.size(), nOut = e.outputs.size();
    std::vector<std::vector<PortValue>> in(kCycles);
    std::vector<std::vector<std::optional<uint64_t>>> out(kCycles);
    for (size_t c = 0; c < kCycles; ++c) {
      const size_t k = c * kLanes + lane;
      for (size_t i = 0; i < nIn; ++i) {
        in[c].push_back({e.inputs[i]->name, stim_[k * nIn + i]});
      }
      out[c].assign(&got_[k * nOut], &got_[k * nOut] + nOut);
    }
    return scalarLaneMatches(*e.built.graph, in, out);
  }

  std::array<Engine, 2> engines_;
  std::vector<uint64_t> stim_;
  std::vector<std::optional<uint64_t>> got_;
};

// ---------------------------------------------------------------------
// fault-campaign: runFaultCampaign on am2901, 1294 stuck-at faults over
// 32 cycles, a fresh campaign seed per op.
// ---------------------------------------------------------------------

class FaultCampaign final : public Workload {
 public:
  [[nodiscard]] size_t opsPerRound() const override { return 1; }

  void setup(Tracer& t, Rng&) override {
    built_ = compileTraced(designSpec("am2901"), 1, t);
  }

  void round(Tracer& t, Rng& rng, std::vector<OpRecord>& ops) override {
    FaultCampaignOptions opts;
    opts.cycles = 32;
    opts.lanes = 64;
    opts.seed = rng.next();
    const SimGraph& g = *built_.graph;
    OpRecord r;
    FaultCampaignReport rep;
    const uint64_t t0 = nowNs();
    try {
      Span op(t, "op");
      Span s(t, "runFaultCampaign", "am2901");
      rep = runFaultCampaign(g, opts);
    } catch (const std::exception&) {
      r.ok = false;
    }
    r.ms = msSince(t0);
    if (r.ok) {
      t.count("fault.batches", static_cast<double>(rep.totalBatches));
      t.count("fault.evaluated_cycles",
              static_cast<double>(rep.evaluatedCycles));
      t.count("fault.faults", static_cast<double>(rep.faults.size()));
      t.count("fault.coverage", rep.coverage());
      r.ok = reportCorrect(rep, opts, rng);
      r.items = r.ok ? rep.faults.size() : 0;
    }
    ops.push_back(r);
  }

  void layerMetrics(const Tracer& t, Metrics& out) const override {
    compileLayerMetrics(t, out);
    const auto self = t.selfNsByRound();
    const char* span = "runFaultCampaign.am2901";
    put(out, "fault.campaign_ms", medianOf(self, span, 1e-6), "ms");
    put(out, "fault.us_per_batch_cycle",
        ratioMedian(rounds(self, span),
                    rounds(t.counts, "fault.evaluated_cycles"), 1e-3),
        "us");
    put(out, "fault.batches", medianOf(t.counts, "fault.batches"), "count");
    put(out, "fault.lane_utilization",
        ratioMedian(rounds(t.counts, "fault.faults"),
                    rounds(t.counts, "fault.batches"), 1.0 / 63),
        "ratio");
    put(out, "fault.coverage", medianOf(t.counts, "fault.coverage"), "ratio");
  }

 private:
  /// The whole universe classified, detections well-formed, and one
  /// seeded detected fault replayed on the scalar firing evaluator.
  bool reportCorrect(const FaultCampaignReport& rep,
                     const FaultCampaignOptions& opts, Rng& rng) const {
    if (rep.interrupted || rep.faults.size() != 2 * built_.graph->denseCount) {
      return false;
    }
    std::vector<size_t> detected;
    for (size_t i = 0; i < rep.faults.size(); ++i) {
      const FaultOutcome& f = rep.faults[i];
      if (f.status != FaultOutcome::Status::Detected) continue;
      if (f.detector.empty() || f.firstDetectCycle >= opts.cycles) return false;
      detected.push_back(i);
    }
    if (detected.empty()) return false;
    return faultReplayMatches(*built_.graph, opts, rep,
                              detected[rng.below(detected.size())]);
  }

  Built built_;
};

// ---------------------------------------------------------------------
// serve-farm: runServeBatch on 16 requests over 4 corpus designs (4
// compile-cache misses, 12 hits per op), 128 lanes x 32 cycles each on 2
// farm threads.
// ---------------------------------------------------------------------

class ServeFarm final : public Workload {
 public:
  [[nodiscard]] size_t opsPerRound() const override { return 1; }

  void setup(Tracer&, Rng& rng) override {
    // The request set is fixed for the run; each op sends it in a new
    // seeded order.  Seeds stay below 2^53 so any JSON reader keeps them.
    for (size_t d = 0; d < kExamples.size(); ++d) {
      for (size_t k = 0; k < kSeedsPerDesign; ++k) {
        requests_.push_back({d, rng.next() >> 11, 0});
      }
    }
  }

  void prepareReferences() override {
    for (size_t d = 0; d < kExamples.size(); ++d) {
      DesignSpec spec{kExamples[d], "", ""};
      std::string top;
      corpus::instantiate(kExamples[d], spec.source, top);
      spec.top = top.c_str();
      Tracer off;
      Built b = compileTraced(spec, 1, off);
      for (Request& q : requests_) {
        if (q.design != d) continue;
        FarmOptions fo;
        fo.lanes = kLanes;
        fo.cycles = kCycles;
        fo.seed = q.seed;
        q.expected = runFarmScalarOracle(*b.graph, fo).mergedChecksum();
      }
    }
  }

  void round(Tracer& t, Rng& rng, std::vector<OpRecord>& ops) override {
    std::vector<size_t> order(requests_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    std::string json = "{\"requests\": [";
    for (size_t i = 0; i < order.size(); ++i) {
      const Request& q = requests_[order[i]];
      json += std::string(i ? ",\n" : "\n") + "{\"id\": \"" +
              std::to_string(order[i]) + "\", \"example\": \"" +
              kExamples[q.design] + "\", \"cycles\": " +
              std::to_string(kCycles) + ", \"lanes\": " +
              std::to_string(kLanes) + ", \"seed\": " +
              std::to_string(q.seed) + "}";
    }
    json += "]}\n";
    ServeOptions so;
    so.defaultThreads = 2;
    ServeStats st;
    std::string resp;

    OpRecord r;
    const uint64_t t0 = nowNs();
    {
      Span op(t, "op");
      Span s(t, "runServeBatch");
      resp = runServeBatch(json, so, &st);
    }
    r.ms = msSince(t0);

    // Check every response row against the scalar oracle.
    double farmSeconds = 0;
    size_t rows = 0;
    r.ok = st.failures == 0 && st.compiles == kExamples.size() &&
           st.cacheHits == requests_.size() - kExamples.size();
    try {
      for (size_t p = resp.find("{\"id\": "); p != std::string::npos;
           p = resp.find("{\"id\": ", p + 1)) {
        const std::string row = resp.substr(p, resp.find('\n', p) - p);
        const size_t id = std::stoul(field(row, "id").substr(1));
        r.ok = r.ok && id < requests_.size() && field(row, "ok") == "true" &&
               field(row, "checksum") ==
                   "\"" + hex(requests_[id].expected) + "\"";
        farmSeconds += std::stod(field(row, "seconds"));
        ++rows;
      }
    } catch (const std::exception&) {
      r.ok = false;
    }
    r.ok = r.ok && rows == requests_.size();
    r.items = r.ok ? rows : 0;

    t.count("serve.requests", static_cast<double>(rows));
    t.count("serve.hits", static_cast<double>(st.cacheHits));
    t.count("serve.misses", static_cast<double>(st.cacheMissUs.count()));
    t.count("serve.miss_us", static_cast<double>(st.cacheMissUs.sum()));
    t.count("serve.hit_us", static_cast<double>(st.cacheHitUs.sum()));
    t.count("farm.seconds", farmSeconds);
    t.count("farm.lane_cycles", static_cast<double>(rows * kLanes * kCycles));
    ops.push_back(r);
  }

  void layerMetrics(const Tracer& t, Metrics& out) const override {
    const auto self = t.selfNsByRound();
    const auto& batch = rounds(self, "runServeBatch");
    const auto& requests = rounds(t.counts, "serve.requests");
    const auto& farm = rounds(t.counts, "farm.seconds");
    const auto& missUs = rounds(t.counts, "serve.miss_us");
    const auto& hitUs = rounds(t.counts, "serve.hit_us");
    put(out, "farm.run_ms", ratioMedian(farm, requests, 1e3), "ms");
    put(out, "farm.lane_cycles_per_s",
        ratioMedian(rounds(t.counts, "farm.lane_cycles"), farm, 1), "1/s");
    put(out, "serve.compile_ms",
        ratioMedian(missUs, rounds(t.counts, "serve.misses"), 1e-3), "ms");
    // What runServeBatch spends outside the farm and the compile cache:
    // request parsing, per-request bookkeeping and response rendering.
    std::map<uint32_t, double> rest;
    for (const auto& [round, ns] : batch) {
      if (farm.count(round) && missUs.count(round) && hitUs.count(round)) {
        rest[round] = ns / 1e3 - farm.at(round) * 1e6 - missUs.at(round) -
                      hitUs.at(round);
      }
    }
    put(out, "serve.overhead_ms", ratioMedian(rest, requests, 1e-3), "ms");
    put(out, "serve.cache_hit_ratio",
        ratioMedian(rounds(t.counts, "serve.hits"), requests, 1), "ratio");
  }

 private:
  static constexpr std::array<const char*, 4> kExamples = {
      "adders", "blackjack", "am2901", "sorter"};
  static constexpr size_t kSeedsPerDesign = 4;
  static constexpr uint64_t kLanes = 128;
  static constexpr uint64_t kCycles = 32;

  struct Request {
    size_t design;
    uint64_t seed;
    uint64_t expected;  ///< runFarmScalarOracle merged checksum
  };

  /// Raw text of `"key": value` in one zeus-serve-v1 result row (strings
  /// keep their quotes); "" when absent.
  static std::string field(const std::string& row, const std::string& key) {
    size_t p = row.find("\"" + key + "\": ");
    if (p == std::string::npos) return "";
    p += key.size() + 4;
    const size_t e = row[p] == '"' ? row.find('"', p + 1) + 1
                                   : row.find_first_of(",}", p);
    return row.substr(p, e - p);
  }

  static std::string hex(uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
  }

  std::vector<Request> requests_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> kNames = {
      "compile-scaled", "sim-ports", "fault-campaign", "serve-farm"};
  return kNames;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "compile-scaled") return std::make_unique<CompileScaled>();
  if (name == "sim-ports") return std::make_unique<SimPorts>();
  if (name == "fault-campaign") return std::make_unique<FaultCampaign>();
  if (name == "serve-farm") return std::make_unique<ServeFarm>();
  return nullptr;
}

}  // namespace zbench
