#include "src/core/batch_sim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/codegen/compiled.h"
#include "src/sim/snapshot.h"

namespace zeus {

namespace {

/// In-place 64x64 bit-matrix transpose (a[r] bit c <-> a[c] bit r): six
/// rounds, each swapping the off-diagonal j x j blocks of every 2j x 2j
/// block.
void transpose64(uint64_t* a) {
  uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// FNV-1a: port names are short, so this is a handful of multiplies.
size_t nameHash(const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  return static_cast<size_t>(h ^ (h >> 29));
}

}  // namespace

void transposeLaneBits(const uint64_t* in, size_t rows, size_t cols,
                       uint64_t* out) {
  if (rows >= 8 && cols >= 8) {
    std::array<uint64_t, 64> a{};
    std::copy_n(in, rows, a.begin());
    transpose64(a.data());
    std::copy_n(a.begin(), cols, out);
    return;
  }
  // Narrow matrices (1-bit ports, few lanes): the direct gather is
  // cheaper than six full rounds.
  std::fill_n(out, cols, 0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) out[c] |= ((in[r] >> c) & 1) << r;
  }
}

BatchSimulation::BatchSimulation(const SimGraph& graph, size_t lanes)
    : g_(graph), lanes_(lanes), eval_(graph) {
  if (g_.hasCycle) {
    throw std::runtime_error("cannot simulate a cyclic design: " +
                             g_.cycleDescription);
  }
  if (lanes_ == 0 || lanes_ > kMaxLanes) {
    throw std::invalid_argument("batch lane count must be 1..64");
  }
  laneMask_ = lanes_ == kMaxLanes ? ~uint64_t{0}
                                  : (uint64_t{1} << lanes_) - 1;
  inputValues_.assign(g_.denseCount, {});
  regValues_.assign(g_.regNodes.size(),
                    lanesBroadcast(Logic::Undef, ~uint64_t{0}));
  seedDefaults();

  // Resolve every port once.  A port may stage its writes only when it
  // owns its nets outright: a net shared with another port (`==`) or
  // with CLK/RSET keeps its writes direct, so the last one still wins.
  const std::vector<Port>& ports = g_.design->ports;
  constexpr uint32_t kUnowned = 0xFFFFFFFFu, kShared = 0xFFFFFFFEu;
  std::vector<uint32_t> owner(g_.denseCount, kUnowned);
  owner[g_.dense(g_.design->clk)] = kShared;
  owner[g_.dense(g_.design->rset)] = kShared;
  ports_.resize(ports.size());
  portSlots_.assign(std::bit_ceil(2 * ports.size() + 1), 0);
  for (uint32_t i = 0; i < ports.size(); ++i) {
    ports_[i].first = static_cast<uint32_t>(portDense_.size());
    ports_[i].width = static_cast<uint32_t>(ports[i].nets.size());
    // Linear probing keeps the first of two same-named ports first, as
    // Design::findPort does.
    size_t slot = nameHash(ports[i].name) & (portSlots_.size() - 1);
    while (portSlots_[slot]) slot = (slot + 1) & (portSlots_.size() - 1);
    portSlots_[slot] = i + 1;
    for (NetId n : ports[i].nets) {
      const uint32_t dn = g_.dense(n);
      portDense_.push_back(dn);  // ports always keep a dense slot
      owner[dn] = owner[dn] == kUnowned || owner[dn] == i ? i : kShared;
    }
  }
  for (uint32_t i = 0; i < ports.size(); ++i) {
    const PortIO& p = ports_[i];
    ports_[i].stageable = std::all_of(
        portDense_.begin() + p.first, portDense_.begin() + p.first + p.width,
        [&](uint32_t dn) { return owner[dn] == i; });
  }
  stagedLanes_.assign(ports.size(), 0);
  stagedVal_.assign(ports.size() * kMaxLanes, 0);
  outEpoch_.assign(ports.size(), 0);
  outUndef_.assign(ports.size(), 0);
  outVal_.assign(ports.size() * kMaxLanes, 0);
}

BatchSimulation::BatchSimulation(
    const SimGraph& graph, size_t lanes,
    std::shared_ptr<const codegen::CompiledDesign> compiled)
    : BatchSimulation(graph, lanes) {
  if (compiled) {
    compiled_ = std::make_unique<codegen::CompiledBatchEvaluator>(
        graph, std::move(compiled));
  }
}

BatchSimulation::~BatchSimulation() = default;

const EvalStats& BatchSimulation::stats() const {
  return compiled_ ? compiled_->stats() : eval_.stats();
}

void BatchSimulation::resetStats() {
  if (compiled_) compiled_->resetStats();
  else eval_.resetStats();
}

void BatchSimulation::seedDefaults() {
  // CLK reads as 1 while a cycle is evaluated; RSET is inactive.  Every
  // lane's RANDOM stream starts from the scalar default seed, so an
  // unseeded lane replays an unseeded scalar run.
  inputValues_[g_.dense(g_.design->clk)] =
      lanesBroadcast(Logic::One, ~uint64_t{0});
  inputValues_[g_.dense(g_.design->rset)] =
      lanesBroadcast(Logic::Zero, ~uint64_t{0});
  rngStates_.fill(kDefaultRngSeed);
}

void BatchSimulation::reset() {
  inputValues_.assign(g_.denseCount, {});
  regValues_.assign(g_.regNodes.size(),
                    lanesBroadcast(Logic::Undef, ~uint64_t{0}));
  std::fill(stagedLanes_.begin(), stagedLanes_.end(), 0);
  anyStaged_ = false;
  seedDefaults();
  cycle_ = 0;
  errors_.clear();
  invalidate();
}

void BatchSimulation::invalidate() {
  evaluated_ = false;
  ++epoch_;
}

BatchSimulation::PortHandle BatchSimulation::port(
    const std::string& name) const {
  const size_t mask = portSlots_.size() - 1;
  for (size_t slot = nameHash(name) & mask; portSlots_[slot];
       slot = (slot + 1) & mask) {
    const uint32_t i = portSlots_[slot] - 1;
    if (g_.design->ports[i].name == name) return PortHandle{i};
  }
  throw std::invalid_argument("no port named '" + name + "'");
}

const BatchSimulation::PortIO& BatchSimulation::portAt(PortHandle port) const {
  if (port.index >= ports_.size()) {
    throw std::invalid_argument("port handle out of range for this design");
  }
  return ports_[port.index];
}

size_t BatchSimulation::portWidth(PortHandle port) const {
  return portAt(port).width;
}

void BatchSimulation::checkLane(size_t lane) const {
  if (lane >= lanes_) {
    throw std::invalid_argument("lane " + std::to_string(lane) +
                                " out of range (batch has " +
                                std::to_string(lanes_) + " lane(s))");
  }
}

void BatchSimulation::setInput(size_t lane, PortHandle port, Logic v) {
  if (isDefined(v) && portAt(port).width == 1) {
    setInputUint(lane, port, v == Logic::One ? 1 : 0);
    return;
  }
  writeLane(lane, port, {&v, 1});
}

void BatchSimulation::setInput(size_t lane, PortHandle port,
                               const std::vector<Logic>& bits) {
  writeLane(lane, port, bits);
}

void BatchSimulation::writeLane(size_t lane, PortHandle port,
                                std::span<const Logic> bits) {
  checkLane(lane);
  const PortIO& p = portAt(port);
  if (bits.size() != p.width) {
    throw std::invalid_argument(
        "port '" + g_.design->ports[port.index].name + "' has " +
        std::to_string(p.width) + " bit(s), got " +
        std::to_string(bits.size()));
  }
  const uint64_t bit = uint64_t{1} << lane;
  stagedLanes_[port.index] &= ~bit;
  for (size_t i = 0; i < bits.size(); ++i) {
    setLanes(inputPlanes(p, i), bit, lanesBroadcast(bits[i], bit));
  }
}

void BatchSimulation::setInputUint(size_t lane, PortHandle port,
                                   uint64_t value) {
  checkLane(lane);
  const PortIO& p = portAt(port);
  const uint64_t bit = uint64_t{1} << lane;
  if (p.stageable) {
    stagedLanes_[port.index] |= bit;
    stagedVal_[port.index * kMaxLanes + lane] = value;
    anyStaged_ = true;
    return;
  }
  for (size_t i = 0; i < p.width; ++i) {
    // Ports wider than 64 bits get zeros above bit 63 (shifting by >= 64
    // is undefined, not zero).
    const uint64_t one = i < 64 && ((value >> i) & 1) ? bit : 0;
    setLanes(inputPlanes(p, i), bit, {~one, one});
  }
}

void BatchSimulation::setInputAll(PortHandle port, Logic v) {
  const PortIO& p = portAt(port);
  stagedLanes_[port.index] = 0;
  for (size_t i = 0; i < p.width; ++i) {
    inputPlanes(p, i) = lanesBroadcast(v, ~uint64_t{0});
  }
}

void BatchSimulation::clearInput(size_t lane, PortHandle port) {
  checkLane(lane);
  const PortIO& p = portAt(port);
  const uint64_t bit = uint64_t{1} << lane;
  stagedLanes_[port.index] &= ~bit;
  // A cleared lane carries NOINFL = (0,0): no contribution.
  for (size_t i = 0; i < p.width; ++i) setLanes(inputPlanes(p, i), bit, {});
}

void BatchSimulation::setInputPlanes(PortHandle port, size_t bit,
                                     uint64_t lanes, LanePlanes v) {
  const PortIO& p = portAt(port);
  if (bit >= p.width) {
    throw std::invalid_argument("bit " + std::to_string(bit) +
                                " out of range for port '" +
                                g_.design->ports[port.index].name + "'");
  }
  // Staged lanes hold every bit of the port: land them first, so this
  // write overrides only the one bit it names.
  if (stagedLanes_[port.index] & lanes) flushStaged();
  setLanes(inputPlanes(p, bit), lanes & laneMask_, v);
}

void BatchSimulation::flushStaged() const {
  if (!anyStaged_) return;
  std::array<uint64_t, kMaxLanes> planes{};
  for (uint32_t pi = 0; pi < ports_.size(); ++pi) {
    const uint64_t lanes = stagedLanes_[pi];
    if (!lanes) continue;
    stagedLanes_[pi] = 0;
    const PortIO& p = ports_[pi];
    const size_t low = std::min<size_t>(p.width, 64);
    transposeLaneBits(&stagedVal_[pi * kMaxLanes], lanes_, low,
                      planes.data());
    for (size_t i = 0; i < p.width; ++i) {
      const uint64_t one = i < low ? planes[i] : 0;
      setLanes(inputPlanes(p, i), lanes, {~one, one});
    }
  }
  anyStaged_ = false;
}

void BatchSimulation::setInput(size_t lane, const std::string& port,
                               Logic v) {
  setInput(lane, this->port(port), v);
}

void BatchSimulation::setInput(size_t lane, const std::string& port,
                               const std::vector<Logic>& bits) {
  setInput(lane, this->port(port), bits);
}

void BatchSimulation::setInputUint(size_t lane, const std::string& port,
                                   uint64_t value) {
  setInputUint(lane, this->port(port), value);
}

void BatchSimulation::setInputAll(const std::string& port, Logic v) {
  setInputAll(this->port(port), v);
}

void BatchSimulation::clearInput(size_t lane, const std::string& port) {
  clearInput(lane, this->port(port));
}

void BatchSimulation::setRset(bool active) {
  inputValues_[g_.dense(g_.design->rset)] =
      lanesBroadcast(logicFromBool(active), ~uint64_t{0});
}

void BatchSimulation::setRset(size_t lane, bool active) {
  checkLane(lane);
  laneSet(inputValues_[g_.dense(g_.design->rset)],
          static_cast<uint32_t>(lane), logicFromBool(active));
}

void BatchSimulation::setRandomSeed(size_t lane, uint64_t seed) {
  checkLane(lane);
  rngStates_[lane] = seed ? seed : 1;
}

uint64_t BatchSimulation::randomState(size_t lane) const {
  checkLane(lane);
  return rngStates_[lane];
}

void BatchSimulation::injectFault(size_t lane, const FaultSpec& fault) {
  checkLane(lane);
  if (fault.denseNet >= g_.denseCount) {
    throw std::invalid_argument("fault targets a net outside this design");
  }
  faults_.emplace_back(static_cast<uint32_t>(lane), fault);
}

void BatchSimulation::buildFaultPlan() {
  faultPlan_.resize(g_.denseCount);  // assign() clears previous cycle too
  faultPlan_.any = false;
  for (const auto& [lane, f] : faults_) {
    if (!f.activeAt(cycle_)) continue;
    uint64_t bit = uint64_t{1} << lane;
    switch (faultModeOf(f.kind)) {
      case FaultMode::Force0: faultPlan_.force0[f.denseNet] |= bit; break;
      case FaultMode::Force1: faultPlan_.force1[f.denseNet] |= bit; break;
      case FaultMode::ForceUndef:
        faultPlan_.forceUndef[f.denseNet] |= bit;
        break;
      case FaultMode::Flip: faultPlan_.flip[f.denseNet] |= bit; break;
      case FaultMode::Contend: faultPlan_.contend[f.denseNet] |= bit; break;
      case FaultMode::None: continue;
    }
    faultPlan_.any = true;
  }
}

uint64_t BatchSimulation::laneDiffMask(NetId net) const {
  if (!evaluated_) return 0;
  uint32_t dn = g_.dense(net);
  if (dn == SimGraph::kNoDense) return 0;  // dropped class: NOINFL everywhere
  const LanePlanes& p = result_.netValues[dn];
  uint64_t g0 = (p.p0 & 1) ? ~uint64_t{0} : 0;
  uint64_t g1 = (p.p1 & 1) ? ~uint64_t{0} : 0;
  return ((p.p0 ^ g0) | (p.p1 ^ g1)) & laneMask_ & ~uint64_t{1};
}

uint64_t BatchSimulation::divergedLanes() const {
  if (!evaluated_) return 0;
  uint64_t diff = 0;
  for (size_t i = 0; i < g_.denseCount; ++i) {
    const LanePlanes& p = result_.netValues[i];
    uint64_t g0 = (p.p0 & 1) ? ~uint64_t{0} : 0;
    uint64_t g1 = (p.p1 & 1) ? ~uint64_t{0} : 0;
    diff |= (p.p0 ^ g0) | (p.p1 ^ g1);
  }
  return diff & laneMask_ & ~uint64_t{1};
}

SimSnapshot BatchSimulation::saveSnapshot(size_t lane) const {
  checkLane(lane);
  flushStaged();
  SimSnapshot s;
  s.designHash = designContentHash(*g_.design);
  s.cycle = cycle_;
  s.rngState = rngStates_[lane];
  s.regValues = saveRegisters(lane);
  s.inputValues.assign(g_.denseCount, Logic::Undef);
  s.inputSet.assign(g_.denseCount, 0);
  for (size_t i = 0; i < g_.denseCount; ++i) {
    Logic v = laneValue(inputValues_[i], static_cast<uint32_t>(lane));
    if (v != Logic::NoInfl) {
      s.inputValues[i] = v;
      s.inputSet[i] = 1;
    }
  }
  for (const SimError& e : errors_) {
    if (e.lane != static_cast<int32_t>(lane)) continue;
    SimError scalar = e;
    scalar.lane = -1;  // scalar convention, so it restores anywhere
    s.errors.push_back(std::move(scalar));
  }
  return s;
}

void BatchSimulation::restoreSnapshot(size_t lane, const SimSnapshot& snap) {
  checkLane(lane);
  if (snap.designHash != 0 &&
      snap.designHash != designContentHash(*g_.design)) {
    throw std::invalid_argument(
        "snapshot was taken on a different design (content hash mismatch)");
  }
  if (snap.regValues.size() != regValues_.size() ||
      snap.inputValues.size() != g_.denseCount ||
      snap.inputSet.size() != g_.denseCount) {
    throw std::invalid_argument(
        "snapshot state sizes do not match this design");
  }
  flushStaged();
  restoreRegisters(lane, snap.regValues);
  for (size_t i = 0; i < g_.denseCount; ++i) {
    laneSet(inputValues_[i], static_cast<uint32_t>(lane),
            snap.inputSet[i] ? snap.inputValues[i] : Logic::NoInfl);
  }
  rngStates_[lane] = snap.rngState;
  cycle_ = snap.cycle;  // shared across lanes (documented)
  for (const SimError& e : snap.errors) {
    SimError tagged = e;
    tagged.lane = static_cast<int32_t>(lane);
    errors_.push_back(std::move(tagged));
  }
  invalidate();
}

std::vector<Logic> BatchSimulation::saveRegisters(size_t lane) const {
  checkLane(lane);
  std::vector<Logic> out(regValues_.size());
  for (size_t k = 0; k < regValues_.size(); ++k) {
    out[k] = laneValue(regValues_[k], static_cast<uint32_t>(lane));
  }
  return out;
}

void BatchSimulation::restoreRegisters(size_t lane,
                                       const std::vector<Logic>& state) {
  checkLane(lane);
  if (state.size() != regValues_.size()) {
    throw std::invalid_argument(
        "register snapshot has wrong size for this design");
  }
  for (size_t k = 0; k < regValues_.size(); ++k) {
    laneSet(regValues_[k], static_cast<uint32_t>(lane), state[k]);
  }
}

void BatchSimulation::runCycle(bool latch) {
  flushStaged();
  BatchSeeds seeds;
  seeds.inputValues = &inputValues_;
  seeds.regValues = &regValues_;
  seeds.rngStates = &rngStates_;
  seeds.laneMask = laneMask_;
  if (!faults_.empty()) {
    buildFaultPlan();
    if (faultPlan_.any) seeds.faults = &faultPlan_;
  }
  if (compiled_) compiled_->evaluate(seeds, result_);
  else eval_.evaluate(seeds, result_);
  evaluated_ = true;
  ++epoch_;
  if (!result_.collisions.empty()) appendContentionErrors();

  const Netlist& nl = g_.design->netlist;
  if (!latch) return;
  // Per-lane two-phase latch (§5.1): a lane's register keeps its value
  // when that lane saw no active assignment this cycle.
  for (size_t k = 0; k < g_.regNodes.size(); ++k) {
    const Node& reg = nl.node(g_.regNodes[k]);
    uint32_t in = g_.dense(reg.inputs[0]);
    uint64_t act = result_.activeAny[in];
    const LanePlanes& v = result_.netValues[in];
    LanePlanes& r = regValues_[k];
    r.p0 = (v.p0 & act) | (r.p0 & ~act);
    r.p1 = (v.p1 & act) | (r.p1 & ~act);
  }
  ++cycle_;
}

void BatchSimulation::appendContentionErrors() {
  const Netlist& nl = g_.design->netlist;
  if (netRank_.empty()) {
    rankedNets_.resize(g_.denseCount);
    for (uint32_t i = 0; i < g_.denseCount; ++i) rankedNets_[i] = i;
    std::stable_sort(rankedNets_.begin(), rankedNets_.end(),
                     [&](uint32_t a, uint32_t b) {
                       return nl.net(g_.rootOf[a]).name <
                              nl.net(g_.rootOf[b]).name;
                     });
    netRank_.resize(g_.denseCount);
    for (uint32_t r = 0; r < g_.denseCount; ++r) netRank_[rankedNets_[r]] = r;
  }
  // Deterministic surfacing order: collisions arrive in schedule order,
  // so sort this cycle's records by (lane, net name) as integer keys.
  // Cycles are appended monotonically, which makes the whole errors()
  // vector ordered by (cycle, lane, net name).
  errorKeys_.clear();
  for (uint32_t dn : result_.collisions) {
    for (uint64_t m = result_.activeMulti[dn] & laneMask_; m; m &= m - 1) {
      const uint64_t lane = static_cast<uint64_t>(__builtin_ctzll(m));
      errorKeys_.push_back(lane << 32 | netRank_[dn]);
    }
  }
  std::sort(errorKeys_.begin(), errorKeys_.end());
  for (uint64_t key : errorKeys_) {
    const uint32_t dn = rankedNets_[static_cast<uint32_t>(key)];
    errors_.push_back(
        {cycle_, Diag::SimContention, nl.net(g_.rootOf[dn]).name,
         "more than one (0,1,UNDEF)-assignment active in one cycle",
         static_cast<int32_t>(key >> 32)});
  }
}

void BatchSimulation::step(uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) runCycle(/*latch=*/true);
}

void BatchSimulation::evaluateOnly() { runCycle(/*latch=*/false); }

Logic BatchSimulation::netValue(size_t lane, NetId net) const {
  checkLane(lane);
  if (!evaluated_) return Logic::Undef;
  uint32_t dn = g_.dense(net);
  if (dn == SimGraph::kNoDense) return Logic::NoInfl;  // dropped class
  return laneValue(result_.netValues[dn], static_cast<uint32_t>(lane));
}

Logic BatchSimulation::netValueByName(size_t lane,
                                      const std::string& name) const {
  NetId id = g_.design->netlist.findByName(name);
  if (id == kNoNet) throw std::invalid_argument("no net named '" + name + "'");
  return netValue(lane, id);
}

LanePlanes BatchSimulation::portPlanes(PortHandle port, size_t bit) const {
  const PortIO& p = portAt(port);
  if (bit >= p.width) {
    throw std::invalid_argument("bit " + std::to_string(bit) +
                                " out of range for port '" +
                                g_.design->ports[port.index].name + "'");
  }
  if (!evaluated_) return lanesBroadcast(Logic::Undef, ~uint64_t{0});
  return result_.netValues[portDense_[p.first + bit]];
}

std::vector<Logic> BatchSimulation::outputBits(
    size_t lane, const std::string& port) const {
  checkLane(lane);
  const PortHandle h = this->port(port);
  const Port& p = g_.design->ports[h.index];
  std::vector<Logic> out;
  out.reserve(p.nets.size());
  for (size_t i = 0; i < p.nets.size(); ++i) {
    Logic v = laneValue(portPlanes(h, i), static_cast<uint32_t>(lane));
    // Observation of a boolean port converts NOINFL to UNDEF (§4.1).
    if (v == Logic::NoInfl && p.kinds[i] == BasicKind::Boolean)
      v = Logic::Undef;
    out.push_back(v);
  }
  return out;
}

Logic BatchSimulation::output(size_t lane, const std::string& port) const {
  std::vector<Logic> bits = outputBits(lane, port);
  if (bits.size() != 1) {
    throw std::invalid_argument("port '" + port + "' is not a single bit");
  }
  return bits[0];
}

metrics::SimCounters BatchSimulation::metricsCounters() const {
  const EvalStats& s = stats();
  metrics::SimCounters c;
  c.ran = true;
  c.evaluator = compiled_ ? "batch-compiled" : "batch";
  c.cycles = cycle_;
  c.lanes = lanes_;
  c.laneCycles = cycle_ * lanes_;
  c.nodeFirings = s.nodeFirings;
  c.inputEvents = s.inputEvents;
  c.sweeps = s.sweeps;
  c.netResolutions = s.netResolutions;
  c.shortCircuitSkips = s.shortCircuitSkips;
  c.contentionChecks = s.contentionChecks;
  c.epochResets = s.epochResets;
  c.faults = errors_.size();
  for (const SimError& e : errors_) {
    if (e.code == Diag::SimContention) ++c.contentionFaults;
  }
  return c;
}

void BatchSimulation::decodeOutputs(PortHandle port) const {
  // Word-level over all lanes: a lane reads nullopt when any bit is not
  // ZERO/ONE (p0 == p1) or a ONE sits above bit 63.
  const PortIO& p = ports_[port.index];
  std::array<uint64_t, kMaxLanes> ones{};
  uint64_t undef = 0;
  for (size_t i = 0; i < p.width; ++i) {
    const LanePlanes v = portPlanes(port, i);
    undef |= ~(v.p0 ^ v.p1);
    if (i < 64) ones[i] = v.p1;
    else undef |= v.p1;
  }
  transposeLaneBits(ones.data(), std::min<size_t>(p.width, 64), lanes_,
                    &outVal_[port.index * kMaxLanes]);
  outUndef_[port.index] = undef;
  outEpoch_[port.index] = epoch_;
}

std::optional<uint64_t> BatchSimulation::outputUint(size_t lane,
                                                    PortHandle port) const {
  checkLane(lane);
  portAt(port);
  if (outEpoch_[port.index] != epoch_) decodeOutputs(port);
  if (outUndef_[port.index] & (uint64_t{1} << lane)) return std::nullopt;
  return outVal_[port.index * kMaxLanes + lane];
}

std::optional<uint64_t> BatchSimulation::outputUint(
    size_t lane, const std::string& port) const {
  return outputUint(lane, this->port(port));
}

}  // namespace zeus
