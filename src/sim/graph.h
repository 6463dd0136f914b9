// The semantics graph (paper §8): the canonicalised netlist prepared for
// evaluation — dense net numbering over alias-class roots, consumer edges,
// combinational-cycle detection (REG is the only cycle breaker) and the
// levelized schedule every engine walks.
#pragma once

#include <string>
#include <vector>

#include "src/elab/design.h"
#include "src/support/diagnostics.h"

namespace zeus {

struct SimGraph {
  const Design* design = nullptr;

  /// Dense slot for an alias class the optimizer dropped (Net::simDropped
  /// and unreferenced): the class has no state in any evaluator and reads
  /// NOINFL.  Callers of dense() on arbitrary NetIds must check for it.
  static constexpr uint32_t kNoDense = 0xFFFFFFFFu;

  // Dense numbering of alias-class roots.
  std::vector<uint32_t> denseOf;   ///< NetId -> dense index (via class root)
  std::vector<NetId> rootOf;       ///< dense index -> representative NetId
  size_t denseCount = 0;

  struct NetInfo {
    uint32_t nonRegDrivers = 0;  ///< driver nodes that must fire first
    bool isBool = false;         ///< class contains a boolean member
    bool isInput = false;        ///< primary input (incl. CLK/RSET)
    bool regDriven = false;      ///< some driver is a REG
    /// More than one potential contributor (drivers + primary input), so
    /// resolving this net involves a §8 contention check.  Evaluators
    /// count EvalStats::contentionChecks off this static flag, which
    /// keeps the counter identical across scalar and batch engines.
    bool multiDriven = false;
  };
  std::vector<NetInfo> nets;  ///< per dense index

  // Consumers in CSR form: for each dense net, the nodes reading it and
  // at which input position.
  std::vector<uint32_t> consumerStart;  ///< size denseCount+1
  std::vector<NodeId> consumers;
  std::vector<uint32_t> consumerInputIdx;

  // Drivers in CSR form (including REG nodes).
  std::vector<uint32_t> driverStart;  ///< size denseCount+1
  std::vector<NodeId> driverNodes;

  std::vector<NodeId> regNodes;
  std::vector<NodeId> sourceNodes;  ///< Const / Random (no net inputs)

  /// One schedule step: resolve a dense net from its drivers, or
  /// evaluate a node from its (already resolved) input nets.
  struct Step {
    uint32_t index;
    bool isNode;
  };
  /// The single dependence order of the design, shared by every engine,
  /// the optimizer's fold oracle, the verifier and the codegen emitter:
  /// source nodes first in NodeId order (so RANDOM nodes draw the rng
  /// stream in the same order everywhere), then each net's resolve step
  /// once all its non-REG drivers have fired, and each non-REG node once
  /// all its input nets have resolved.  Incomplete when hasCycle.
  std::vector<Step> schedule;

  /// regIndexOf value of a non-REG node.
  static constexpr uint32_t kNotReg = 0xFFFFFFFFu;
  std::vector<uint32_t> regIndexOf;  ///< NodeId -> index into regNodes

  std::vector<uint32_t> netLevel;   ///< per dense net, longest path depth
  uint32_t maxLevel = 0;

  bool hasCycle = false;
  std::string cycleDescription;

  [[nodiscard]] uint32_t dense(NetId id) const {
    return denseOf[design->netlist.find(id)];
  }
};

/// Builds the graph.  Reports CombinationalLoop through `diags` when the
/// non-register part of the design is cyclic (then hasCycle is set and the
/// graph must not be simulated).
SimGraph buildSimGraph(const Design& design, DiagnosticEngine& diags);

/// Verifies the user's SEQUENTIAL annotations against the data dependences
/// of the graph (§4.5: the simulator checks that the specified sequence is
/// compatible).  Violations are reported as warnings.
void checkSequentialOrder(const Design& design, const SimGraph& graph,
                          DiagnosticEngine& diags);

}  // namespace zeus
