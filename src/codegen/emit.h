// Ahead-of-time C++ emitter for the levelized schedule.
//
// Walks the same interleaved resolve/evaluate schedule the levelized
// interpreters execute (SimGraph::schedule) and emits one
// straight-line, branch-minimized translation unit: a single evaluate
// function operating directly on the 64-lane LanePlanes 2-bit encoding,
// with the §8 contention rule, the per-lane RANDOM streams and the
// BatchFaultPlan overlay inlined per net.  The generated source is
// self-contained — it re-declares the v1 ABI structs from
// src/codegen/abi.h and needs no include path — and deterministic for a
// given (graph, options, build stamp), so it doubles as the artifact
// cache key material (src/codegen/compiled.h).
//
// The emitter REFUSES rather than guesses: a cyclic graph, a graph the
// post-pass verifier rejects (src/transform/verify.h: say, an incomplete
// schedule) or a malformed node arity yields ok=false with a structured
// error.  Callers
// fall back to the interpreter; the fuzz harness (tools/zeus_fuzz.cpp)
// feeds every elaboration survivor through here to keep that contract
// crash-free.
#pragma once

#include <cstdint>
#include <string>

#include "src/sim/graph.h"

namespace zeus::codegen {

struct EmitOptions {
  /// Zeus optimizer level the graph was built at; recorded in the ABI
  /// descriptor and folded into the artifact cache key.
  uint32_t optLevel = 1;
};

struct EmitResult {
  bool ok = false;
  std::string error;   ///< set when !ok
  std::string source;  ///< the generated translation unit

  // Descriptor facts, mirrored from the emitted source so callers can
  // size buffers without loading the artifact.
  uint64_t designHash = 0;
  uint32_t denseCount = 0;
  uint32_t regCount = 0;
  uint32_t nodeSlots = 0;
  uint32_t randomNodes = 0;
  uint64_t nodeFiringsPerCycle = 0;
  uint64_t netResolutionsPerCycle = 0;
  uint64_t contentionChecksPerCycle = 0;
};

/// Emits the compiled-engine source for `graph`.  Never throws; every
/// refusal is a structured EmitResult.error.
[[nodiscard]] EmitResult emitCompiledCpp(const SimGraph& graph,
                                         const EmitOptions& opts = {});

}  // namespace zeus::codegen
