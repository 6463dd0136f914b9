// 64-wide batch simulation facade over the levelized evaluator.
//
// Packs up to 64 independent stimulus vectors ("lanes") into two bit
// planes per net and evaluates all of them with one word-parallel walk of
// the levelized schedule — corpus regression sweeps and random
// differential testing run ~lanes cycles of work per evaluated cycle.
// Lane L behaves exactly like a scalar Simulation fed lane L's inputs:
// same net values, same register trajectories, same per-lane multiplex
// contention errors (SimError::lane tells the lanes apart).
//
// Port I/O is word-level.  Ports are resolved once into PortHandles
// (dense net tables built at construction); a per-lane value write is
// staged as one uint64_t per (port, lane) and becomes plane bits in one
// bit transpose when the next cycle is evaluated; a per-lane value read
// transposes the port's planes for every lane once per evaluated cycle.
// The string-keyed calls are thin wrappers over the handle calls.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/sim/simulation.h"

namespace zeus {

namespace codegen {
class CompiledDesign;
class CompiledBatchEvaluator;
}  // namespace codegen

/// Bit-matrix transpose: out[c] bit r = in[r] bit c, for r < rows and
/// c < cols (both at most 64).  Moves per-lane values into per-bit lane
/// planes and back.
void transposeLaneBits(const uint64_t* in, size_t rows, size_t cols,
                       uint64_t* out);

class BatchSimulation {
 public:
  static constexpr size_t kMaxLanes = 64;

  /// A port resolved once: its index in Design::ports, so one handle is
  /// valid for every BatchSimulation over the same design.
  struct PortHandle {
    uint32_t index = 0;
  };

  /// `lanes` independent stimulus streams (1..64) over one graph.
  explicit BatchSimulation(const SimGraph& graph, size_t lanes = kMaxLanes);
  /// Same facade running the hot-loaded compiled engine
  /// (src/codegen/compiled.h) instead of the interpreter; a null design
  /// falls back to the interpreter silently.
  BatchSimulation(const SimGraph& graph, size_t lanes,
                  std::shared_ptr<const codegen::CompiledDesign> compiled);
  ~BatchSimulation();  // out-of-line: compiled_ is an incomplete type

  /// True when cycles run on the compiled engine (vs the interpreter).
  [[nodiscard]] bool usingCompiled() const { return compiled_ != nullptr; }

  [[nodiscard]] size_t lanes() const { return lanes_; }

  /// Clears registers to UNDEF, inputs to unset, cycle count to 0 and the
  /// per-lane RANDOM streams to their defaults (mirrors Simulation::reset).
  void reset();

  /// Resolves a port name (throws std::invalid_argument when unknown).
  [[nodiscard]] PortHandle port(const std::string& name) const;
  [[nodiscard]] size_t portWidth(PortHandle port) const;

  // -- driving inputs (persist until changed) --
  // A defined value written to one lane (setInputUint, or setInput with
  // ZERO/ONE on a 1-bit port) is staged and becomes visible to the
  // engine at the next step/evaluateOnly, or to saveSnapshot and
  // restoreSnapshot; reset() discards it.  Every other write lands in
  // the planes at once, and a later write to the same (port, lane) wins.
  void setInput(size_t lane, PortHandle port, Logic v);
  void setInput(size_t lane, PortHandle port, const std::vector<Logic>& bits);
  /// Sets an array port from an unsigned value; port index 1 is the LSB
  /// and bits above 63 of a wider port are ZERO.
  void setInputUint(size_t lane, PortHandle port, uint64_t value);
  void setInputAll(PortHandle port, Logic v);
  void clearInput(size_t lane, PortHandle port);
  /// Plane-level write: bit `bit` of `port` takes v's value on every lane
  /// in `lanes` (lanes outside the batch are ignored).  A broadcast is
  /// setInputPlanes(p, b, mask, lanesBroadcast(value, mask)).
  void setInputPlanes(PortHandle port, size_t bit, uint64_t lanes,
                      LanePlanes v);

  void setInput(size_t lane, const std::string& port, Logic v);
  void setInput(size_t lane, const std::string& port,
                const std::vector<Logic>& bits);
  void setInputUint(size_t lane, const std::string& port, uint64_t value);
  /// Drives the same value on every lane.
  void setInputAll(const std::string& port, Logic v);
  void clearInput(size_t lane, const std::string& port);
  void setRset(bool active);               ///< all lanes
  void setRset(size_t lane, bool active);  ///< one lane
  /// Seed for lane `lane`'s RANDOM stream: the lane then draws the same
  /// sequence as a scalar Simulation with setRandomSeed(seed).
  void setRandomSeed(size_t lane, uint64_t seed);
  /// Current position of lane `lane`'s RANDOM stream (the value a
  /// snapshot of that lane would carry).
  [[nodiscard]] uint64_t randomState(size_t lane) const;

  // -- fault injection (parallel fault simulation) --
  /// Injects a hardware fault (src/sim/fault.h) into one lane: that lane
  /// then simulates the faulty machine while other lanes are unaffected —
  /// the classic golden-lane-0 parallel fault simulation setup used by
  /// runFaultCampaign().  Faults persist across reset(); clearFaults()
  /// removes them.
  void injectFault(size_t lane, const FaultSpec& fault);
  void clearFaults() { faults_.clear(); }

  // -- divergence probes (vs the golden lane 0) --
  /// Lanes (excluding lane 0) whose raw planes differ from lane 0 on this
  /// net in the last evaluated cycle.
  [[nodiscard]] uint64_t laneDiffMask(NetId net) const;
  /// Union of laneDiffMask over every net: all lanes that diverged from
  /// lane 0 anywhere this cycle.
  [[nodiscard]] uint64_t divergedLanes() const;

  // -- checkpointing --
  /// Registers of one lane only — see the Simulation::saveRegisters
  /// contract: partial state, no RNG/cycle/inputs/errors.
  [[nodiscard]] std::vector<Logic> saveRegisters(size_t lane) const;
  void restoreRegisters(size_t lane, const std::vector<Logic>& state);

  /// Full resumable state of one lane, interchangeable with a scalar
  /// Simulation snapshot of the same design: registers, pending inputs
  /// (NOINFL lanes read as unset), the lane's RANDOM stream, the shared
  /// cycle count and the lane's SimErrors (with lane reset to -1 so they
  /// restore cleanly into a scalar run).  Evaluator counters are batch-
  /// wide, not per lane, so the snapshot's stats field is left zero.
  [[nodiscard]] SimSnapshot saveSnapshot(size_t lane) const;
  /// Restores a (scalar or per-lane) snapshot into one lane.  Sets the
  /// batch's SHARED cycle counter to the snapshot's cycle and appends the
  /// snapshot's errors tagged with this lane.  Throws
  /// std::invalid_argument on design-hash or size mismatch.
  void restoreSnapshot(size_t lane, const SimSnapshot& snap);

  /// Evaluates `n` clock cycles (evaluate + latch each) on every lane.
  void step(uint64_t n = 1);
  /// Evaluates combinationally without latching registers (inspection).
  void evaluateOnly();

  // -- observing --
  // Reads share one per-port cache, so const calls on one
  // BatchSimulation must not run concurrently.
  /// Plane-level read: the raw planes of bit `bit` of `port` in the last
  /// evaluated cycle (NOINFL lanes stay (0,0); UNDEF before any cycle).
  [[nodiscard]] LanePlanes portPlanes(PortHandle port, size_t bit) const;
  /// The port's value on one lane, or nullopt when a bit is not ZERO/ONE
  /// or a ONE sits above bit 63.  O(1) after the first read of the port
  /// in a cycle, which decodes every lane at once.
  [[nodiscard]] std::optional<uint64_t> outputUint(size_t lane,
                                                   PortHandle port) const;
  [[nodiscard]] Logic output(size_t lane, const std::string& port) const;
  [[nodiscard]] std::vector<Logic> outputBits(size_t lane,
                                              const std::string& port) const;
  [[nodiscard]] std::optional<uint64_t> outputUint(
      size_t lane, const std::string& port) const;
  [[nodiscard]] Logic netValue(size_t lane, NetId net) const;
  [[nodiscard]] Logic netValueByName(size_t lane,
                                     const std::string& name) const;

  [[nodiscard]] uint64_t cycle() const { return cycle_; }
  /// Runtime faults across all lanes, deterministically ordered by
  /// (cycle, lane, net name); SimError::lane identifies the lane.
  [[nodiscard]] const std::vector<SimError>& errors() const {
    return errors_;
  }
  [[nodiscard]] const EvalStats& stats() const;
  void resetStats();

  /// Counter snapshot of this run.  Per-evaluated-cycle counters (one
  /// word-parallel firing covers every lane), so totals compare directly
  /// with a scalar levelized run of the same cycle count; lane_cycles
  /// reports the lanes × cycles of scalar-equivalent work performed.
  [[nodiscard]] metrics::SimCounters metricsCounters() const;

  [[nodiscard]] const SimGraph& graph() const { return g_; }
  [[nodiscard]] const Design& design() const { return *g_.design; }

 private:
  /// One design port: its dense nets and whether its writes may stage.
  struct PortIO {
    uint32_t first = 0;  ///< offset into portDense_
    uint32_t width = 0;
    /// No other port, CLK or RSET shares a net with this one, so staged
    /// values can be flushed in any port order.
    bool stageable = false;
  };

  const PortIO& portAt(PortHandle port) const;
  LanePlanes& inputPlanes(const PortIO& p, size_t bit) const {
    return inputValues_[portDense_[p.first + bit]];
  }
  void checkLane(size_t lane) const;
  /// Direct write of every bit of one (port, lane); drops its staged value.
  void writeLane(size_t lane, PortHandle port, std::span<const Logic> bits);
  void flushStaged() const;
  void decodeOutputs(PortHandle port) const;
  void invalidate();
  void runCycle(bool latch);
  void appendContentionErrors();
  void seedDefaults();
  void buildFaultPlan();

  const SimGraph& g_;
  size_t lanes_;
  uint64_t laneMask_;
  LevelizedBatchEvaluator eval_;  ///< interpreter (also the fallback)
  std::unique_ptr<codegen::CompiledBatchEvaluator> compiled_;

  std::vector<PortIO> ports_;         ///< per Design::ports index
  std::vector<uint32_t> portDense_;   ///< dense net of each port bit
  /// Open-addressed name table: port index + 1 per slot, 0 = empty.
  std::vector<uint32_t> portSlots_;

  // Staged writes are a write-behind cache of inputValues_: flushing
  // them changes no observable state, so const readers may flush.
  mutable std::vector<LanePlanes> inputValues_;  ///< per dense net
  mutable std::vector<uint64_t> stagedLanes_;  ///< per port: staged lanes
  mutable std::vector<uint64_t> stagedVal_;    ///< per port x 64 lanes
  mutable bool anyStaged_ = false;

  // Decoded outputs, valid while outEpoch_[port] == epoch_.
  uint64_t epoch_ = 1;  ///< bumped whenever result_ or evaluated_ changes
  mutable std::vector<uint64_t> outEpoch_;  ///< per port
  mutable std::vector<uint64_t> outUndef_;  ///< per port: nullopt lanes
  mutable std::vector<uint64_t> outVal_;    ///< per port x 64 lanes

  // Contention errors: dense nets ranked by name once (on the first
  // contention), so a cycle's records sort as (lane, rank) integers.
  std::vector<uint32_t> netRank_;     ///< dense net -> rank
  std::vector<uint32_t> rankedNets_;  ///< rank -> dense net
  std::vector<uint64_t> errorKeys_;   ///< scratch: lane << 32 | rank

  std::vector<LanePlanes> regValues_;    ///< per graph.regNodes index
  std::array<uint64_t, kMaxLanes> rngStates_;
  BatchCycleResult result_;
  uint64_t cycle_ = 0;
  std::vector<SimError> errors_;
  bool evaluated_ = false;
  std::vector<std::pair<uint32_t, FaultSpec>> faults_;  ///< (lane, fault)
  BatchFaultPlan faultPlan_;  ///< rebuilt per cycle while faults_ exists
};

}  // namespace zeus
