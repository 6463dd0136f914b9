#include "bench.h"

#include <algorithm>
#include <stdexcept>

#include "src/corpus/corpus.h"

namespace zbench {

using namespace zeus;

DesignSpec designSpec(const std::string& tag) {
  if (tag == "am2901") return {"am2901", corpus::kAm2901, "alu"};
  // Every other design is one corpus family instantiated at one size.
  struct Instance {
    const char* tag;
    const char* family;
    const char* top;
    const char* type;
  };
  static const Instance kInstances[] = {
      {"ripple32", corpus::kAdders, "adder", "rippleCarry(32)"},
      {"ripple48", corpus::kAdders, "adder", "rippleCarry(48)"},
      {"ripple64", corpus::kAdders, "adder", "rippleCarry(64)"},
      {"ripple128", corpus::kAdders, "adder", "rippleCarry(128)"},
      {"ripple160", corpus::kAdders, "adder", "rippleCarry(160)"},
      {"sorter8", corpus::kSorter, "s", "sorter(8)"},
      {"sorter12", corpus::kSorter, "s", "sorter(12)"},
      {"sorter14", corpus::kSorter, "s", "sorter(14)"},
      {"routing16", corpus::kRoutingNetwork, "net", "routingnetwork(16)"},
      {"routing32", corpus::kRoutingNetwork, "net", "routingnetwork(32)"},
      {"dict8", corpus::kDictionary, "dict", "dicttree(8)"},
      {"dict32", corpus::kDictionary, "dict", "dicttree(32)"},
      {"matvec12", corpus::kMatVec, "m", "matvec(12)"},
      {"matvec16", corpus::kMatVec, "m", "matvec(16)"},
      {"matvec24", corpus::kMatVec, "m", "matvec(24)"},
      {"stack32", corpus::kSystolicStack, "st", "systolicstack(32)"},
      {"stack64", corpus::kSystolicStack, "st", "systolicstack(64)"},
      {"htree256", corpus::kHtree, "a", "htree(256)"},
      {"htree512", corpus::kHtree, "a", "htree(512)"},
  };
  for (const Instance& d : kInstances) {
    if (tag == d.tag) {
      return {d.tag,
              std::string(d.family) + "SIGNAL " + d.top + ": " + d.type +
                  ";\n",
              d.top};
    }
  }
  throw std::invalid_argument("unknown benchmark design " + tag);
}

Built compileTraced(const DesignSpec& spec, int optLevel, Tracer& t) {
  Built b;
  {
    Span s(t, "fromSource", spec.tag);
    b.comp = Compilation::fromSource(std::string(spec.tag) + ".zeus",
                                     spec.source);
  }
  if (!b.comp->ok()) {
    throw std::runtime_error(std::string(spec.tag) + ": " +
                             b.comp->diagnosticsText());
  }
  {
    Span s(t, "elaborate", spec.tag);
    b.design = b.comp->elaborate(spec.top);
  }
  if (!b.design) {
    throw std::runtime_error(std::string(spec.tag) + ": " +
                             b.comp->diagnosticsText());
  }
  {
    Span s(t, "optimize", spec.tag);
    OptOptions o;
    o.level = optLevel;
    b.opt = b.comp->optimize(*b.design, o);
  }
  if (!b.comp->ok() || !b.opt.verified) {
    throw std::runtime_error(std::string(spec.tag) + ": optimizer: " +
                             b.opt.verifyError + b.comp->diagnosticsText());
  }
  {
    Span s(t, "buildSimGraph", spec.tag);
    b.graph = std::make_unique<SimGraph>(
        buildSimGraph(*b.design, b.comp->diags()));
  }
  if (b.graph->hasCycle) {
    throw std::runtime_error(std::string(spec.tag) + ": cyclic design");
  }
  t.count("transform.nodes_removed", static_cast<double>(b.opt.totalRemoved()));
  t.count("sim.dense_nets", static_cast<double>(b.graph->denseCount));
  t.count("sim.max_level", static_cast<double>(b.graph->maxLevel));
  return b;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

std::optional<double> medianOf(const KeyedRounds& m, const std::string& key,
                               double scale) {
  auto it = m.find(key);
  if (it == m.end()) return std::nullopt;
  std::vector<double> v;
  for (const auto& [round, value] : it->second) v.push_back(value * scale);
  return median(std::move(v));
}

const std::map<uint32_t, double>& rounds(const KeyedRounds& m,
                                         const std::string& key) {
  static const std::map<uint32_t, double> kNone;
  auto it = m.find(key);
  return it == m.end() ? kNone : it->second;
}

void put(Metrics& out, const std::string& name, std::optional<double> v,
         const char* unit) {
  if (v) out.emplace(name, MetricValue{*v, unit});
}

std::optional<double> ratioMedian(const std::map<uint32_t, double>& num,
                                  const std::map<uint32_t, double>& den,
                                  double scale) {
  std::vector<double> v;
  for (const auto& [round, n] : num) {
    auto d = den.find(round);
    if (d != den.end() && d->second != 0) v.push_back(n / d->second * scale);
  }
  if (v.empty()) return std::nullopt;
  return median(std::move(v));
}

void compileLayerMetrics(const Tracer& t, Metrics& out) {
  // Sum each layer over the designs of a round (span keys carry the
  // design tag), then take the median over rounds.
  KeyedRounds layerNs;
  for (const auto& [key, byRound] : t.selfNsByRound()) {
    const std::string name = key.substr(0, key.find('.'));
    for (const auto& [round, ns] : byRound) layerNs[name][round] += ns;
  }
  const std::pair<const char*, const char*> layers[] = {
      {"fromSource", "frontend.fromsource_ms"},
      {"elaborate", "elab.elaborate_ms"},
      {"optimize", "transform.optimize_ms"},
      {"buildSimGraph", "sim.graph_build_ms"}};
  for (const auto& [span, metric] : layers) {
    put(out, metric, medianOf(layerNs, span, 1e-6), "ms");
  }
  for (const char* key :
       {"transform.nodes_removed", "sim.dense_nets", "sim.max_level"}) {
    put(out, key, medianOf(t.counts, key), "count");
  }
}

}  // namespace zbench
