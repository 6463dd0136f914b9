// Reference checks.  Each one recomputes an op's answer on a path the op
// did not take: the scalar firing evaluator (the §8 semantics itself),
// the unoptimized graph, or plain integer arithmetic.
#include "bench.h"

namespace zbench {

using namespace zeus;

namespace {

bool isInput(const Port& p) { return p.mode == ast::ParamMode::In; }

void driveUint(Simulation& sim, const Port& p, uint64_t value) {
  if (p.nets.size() == 1) {
    sim.setInput(p.name, logicFromBool(value & 1));
  } else {
    sim.setInputUint(p.name, value);
  }
}

uint64_t xorshift(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// Output bits of a design in the order runFaultCampaign scans them, with
/// the detector labels it reports ("s" or "s[3]").
struct Observable {
  std::string label;
  NetId net;
};

std::vector<Observable> observables(const Design& d) {
  std::vector<Observable> out;
  for (const Port& p : d.ports) {
    for (size_t b = 0; b < p.nets.size(); ++b) {
      if (p.modes[b] == ast::ParamMode::In) continue;
      out.push_back({p.nets.size() == 1
                         ? p.name
                         : p.name + "[" + std::to_string(b + 1) + "]",
                     p.nets[b]});
    }
  }
  return out;
}

}  // namespace

bool scalarLaneMatches(
    const SimGraph& graph, const std::vector<std::vector<PortValue>>& inputs,
    const std::vector<std::vector<std::optional<uint64_t>>>& outputs) {
  Simulation sim(graph, EvaluatorKind::Firing);
  const Design& d = *graph.design;
  for (size_t c = 0; c < inputs.size(); ++c) {
    sim.setRset(c == 0);
    for (const PortValue& pv : inputs[c]) {
      driveUint(sim, *d.findPort(pv.port), pv.value);
    }
    sim.step(1);
    size_t k = 0;
    for (const Port& p : d.ports) {
      if (isInput(p)) continue;
      if (k >= outputs[c].size() || sim.outputUint(p.name) != outputs[c][k]) {
        return false;
      }
      ++k;
    }
    if (k != outputs[c].size()) return false;
  }
  return true;
}

uint64_t firingChecksum(const SimGraph& graph, uint64_t seed,
                        uint64_t cycles) {
  Simulation sim(graph, EvaluatorKind::Firing);
  const Design& d = *graph.design;
  Rng rng{seed};
  uint64_t h = 0xCBF29CE484222325ull;
  for (uint64_t c = 0; c < cycles; ++c) {
    sim.setRset(c == 0);
    for (const Port& p : d.ports) {
      if (!isInput(p)) continue;
      std::vector<Logic> bits(p.nets.size());
      for (Logic& b : bits) b = logicFromBool(rng.next() & 1);
      sim.setInput(p.name, bits);
    }
    sim.step(1);
    for (const Port& p : d.ports) {
      if (isInput(p)) continue;
      for (Logic v : sim.outputBits(p.name)) {
        h = (h ^ (static_cast<uint64_t>(v) + 1)) * 0x100000001B3ull;
      }
    }
  }
  return h;
}

bool faultReplayMatches(const SimGraph& graph,
                        const FaultCampaignOptions& opts,
                        const FaultCampaignReport& report, size_t index) {
  const FaultOutcome& fault = report.faults.at(index);
  if (fault.status != FaultOutcome::Status::Detected) return false;
  Simulation golden(graph, EvaluatorKind::Firing);
  Simulation faulty(graph, EvaluatorKind::Firing);
  faulty.injectFault(fault.spec);
  const Design& d = *graph.design;
  const std::vector<Observable> outs = observables(d);

  // The campaign's documented stimulus: identical on every lane of a
  // batch, an xorshift stream rooted at splitmix(seed ^ batch * phi).
  const uint64_t perBatch = report.lanes - 1;
  const uint64_t batch = index / perBatch;
  uint64_t stream = splitmix64(opts.seed ^ (batch * 0x9E3779B97F4A7C15ull));
  if (!stream) stream = 1;
  for (uint64_t c = 0; c < opts.cycles; ++c) {
    golden.setRset(c == 0);
    faulty.setRset(c == 0);
    for (const Port& p : d.ports) {
      if (!isInput(p)) continue;
      std::vector<Logic> bits(p.nets.size());
      uint64_t word = 0;
      for (size_t b = 0; b < bits.size(); ++b) {
        if (b % 64 == 0) word = xorshift(stream);
        bits[b] = logicFromBool((word >> (b % 64)) & 1);
      }
      golden.setInput(p.name, bits);
      faulty.setInput(p.name, bits);
    }
    golden.step(1);
    faulty.step(1);
    for (const Observable& o : outs) {
      const Logic g = golden.netValue(o.net);
      const Logic f = faulty.netValue(o.net);
      if (isDefined(g) && isDefined(f) && g != f) {
        return c == fault.firstDetectCycle && o.label == fault.detector;
      }
    }
  }
  return false;
}

}  // namespace zbench
