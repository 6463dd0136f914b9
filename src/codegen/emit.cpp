#include "src/codegen/emit.h"

#include <cstdio>
#include <string>
#include <vector>

#include "src/codegen/abi.h"
#include "src/elab/netlist.h"
#include "src/sim/snapshot.h"
#include "src/support/buildinfo.h"
#include "src/support/trace.h"
#include "src/transform/verify.h"

namespace zeus::codegen {

namespace {

constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

std::string hexU64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string num(uint64_t v) { return std::to_string(v); }

std::string escapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += '?';  // identifiers never contain control bytes; be safe
      continue;
    }
    out += c;
  }
  return out;
}

/// Both planes of lanesBroadcast(v, ~0) as emitted literals.
void broadcastPlanes(Logic v, std::string& p0, std::string& p1) {
  const std::string ones = "~0ull";
  const std::string zero = "0ull";
  switch (v) {
    case Logic::Zero: p0 = ones; p1 = zero; return;
    case Logic::One: p0 = zero; p1 = ones; return;
    case Logic::Undef: p0 = ones; p1 = ones; return;
    case Logic::NoInfl: p0 = zero; p1 = zero; return;
  }
  p0 = ones;
  p1 = ones;
}

struct Emitter {
  const SimGraph& g;
  const Netlist& nl;
  const EmitOptions& opts;
  EmitResult r;

  std::vector<uint32_t> slotOf;
  uint32_t slots = 0;
  uint32_t randomNodes = 0;
  std::string body;

  bool fail(const std::string& why) {
    if (r.error.empty()) r.error = why;
    return false;
  }

  std::string netRef(uint32_t dn) { return "net[" + num(dn) + "]"; }

  /// Dense index of a node input net, validated; kNoDense/range errors
  /// become structured refusals (the fuzz contract: never crash).
  bool denseInput(NodeId ni, size_t k, uint32_t& out) {
    const Node& node = nl.node(ni);
    if (k >= node.inputs.size()) {
      return fail("node " + num(ni) + " (" +
                  std::string(nodeOpName(node.op)) + ") is missing input " +
                  num(k));
    }
    NetId in = node.inputs[k];
    if (in >= g.denseOf.size() || g.denseOf[in] == SimGraph::kNoDense ||
        g.denseOf[in] >= g.denseCount) {
      return fail("node " + num(ni) + " reads a net with no dense slot");
    }
    out = g.denseOf[in];
    return true;
  }

  bool buildSlots() {
    // The graph verifier owns the schedule's rules (every non-REG node
    // and dense net exactly once, dependences respected); refuse any
    // graph it rejects rather than emit a malformed engine.
    std::string bad = verifyGraph(*g.design, g);
    if (!bad.empty()) return fail("malformed graph (" + bad + ")");
    slotOf.assign(nl.nodeCount(), kNoSlot);
    for (const SimGraph::Step& op : g.schedule) {
      if (op.isNode) slotOf[op.index] = slots++;
    }
    return true;
  }

  bool emitResolve(uint32_t i) {
    // Contribution expressions, in the interpreter's order: input seed
    // first, then drivers in CSR order (REG drivers read the latched
    // plane, others the producing node's scratch slot).
    std::vector<std::string> contribs;
    if (g.nets[i].isInput) contribs.push_back("in[" + num(i) + "]");
    for (uint32_t e = g.driverStart[i]; e < g.driverStart[i + 1]; ++e) {
      NodeId d = g.driverNodes[e];
      if (d >= nl.nodeCount()) return fail("driver node out of range");
      uint32_t ri = g.regIndexOf[d];
      if (ri != SimGraph::kNotReg) {
        contribs.push_back("reg[" + num(ri) + "]");
      } else {
        if (slotOf[d] == kNoSlot) {
          return fail("net " + num(i) + " reads an unscheduled node");
        }
        contribs.push_back("t[" + num(slotOf[d]) + "]");
      }
    }
    std::string line = "  { ";
    if (contribs.empty()) {
      line += "LP r{0, 0}; uint64_t s = 0, m = 0; ";
    } else if (contribs.size() == 1) {
      line += "LP r = " + contribs[0] +
              "; uint64_t s = r.p0 | r.p1, m = 0; ";
    } else {
      line += "LP r{0, 0}; uint64_t s = 0, m = 0; ";
      for (const std::string& c : contribs) line += "ZC(" + c + ") ";
    }
    line += "ZW(" + num(i) + ") }\n";
    body += line;
    return true;
  }

  bool emitNode(NodeId ni) {
    const Node& node = nl.node(ni);
    const std::string t = "t[" + num(slotOf[ni]) + "]";
    uint32_t i0 = 0, i1 = 0;
    switch (node.op) {
      case NodeOp::Const: {
        std::string p0, p1;
        broadcastPlanes(node.constVal, p0, p1);
        body += "  " + t + " = LP{" + p0 + ", " + p1 + "};\n";
        return true;
      }
      case NodeOp::Random:
        ++randomNodes;
        body += "  " + t + " = rnd(rng);\n";
        return true;
      case NodeOp::Buf: {
        if (!denseInput(ni, 0, i0)) return false;
        bool toBool = node.output != kNoNet &&
                      node.output < g.denseOf.size() &&
                      g.denseOf[node.output] != SimGraph::kNoDense &&
                      g.denseOf[node.output] < g.denseCount &&
                      g.nets[g.denseOf[node.output]].isBool;
        if (toBool) {
          // Multiplex→boolean conversion: NOINFL reads as UNDEF.
          body += "  { LP v = " + netRef(i0) +
                  "; uint64_t n = ~(v.p0 | v.p1); " + t +
                  " = LP{v.p0 | n, v.p1 | n}; }\n";
        } else {
          body += "  " + t + " = " + netRef(i0) + ";\n";
        }
        return true;
      }
      case NodeOp::Not:
        if (!denseInput(ni, 0, i0)) return false;
        body += "  { LP a = gi(" + netRef(i0) + "); " + t +
                " = LP{a.p1, a.p0}; }\n";
        return true;
      case NodeOp::And:
      case NodeOp::Nand: {
        std::string line = "  { LP v{0, ~0ull}; LP c; ";
        for (size_t k = 0; k < node.inputs.size(); ++k) {
          if (!denseInput(ni, k, i0)) return false;
          line += "c = gi(" + netRef(i0) + "); v.p0 |= c.p0; v.p1 &= c.p1; ";
        }
        line += t + (node.op == NodeOp::Nand ? " = LP{v.p1, v.p0}; }\n"
                                             : " = v; }\n");
        body += line;
        return true;
      }
      case NodeOp::Or:
      case NodeOp::Nor: {
        std::string line = "  { LP v{~0ull, 0}; LP c; ";
        for (size_t k = 0; k < node.inputs.size(); ++k) {
          if (!denseInput(ni, k, i0)) return false;
          line += "c = gi(" + netRef(i0) + "); v.p0 &= c.p0; v.p1 |= c.p1; ";
        }
        line += t + (node.op == NodeOp::Nor ? " = LP{v.p1, v.p0}; }\n"
                                            : " = v; }\n");
        body += line;
        return true;
      }
      case NodeOp::Xor: {
        std::string line = "  { uint64_t ad = ~0ull, pa = 0; LP c; ";
        for (size_t k = 0; k < node.inputs.size(); ++k) {
          if (!denseInput(ni, k, i0)) return false;
          line += "c = gi(" + netRef(i0) +
                  "); ad &= ~(c.p0 & c.p1); pa ^= c.p1 & ~c.p0; ";
        }
        line += t + " = LP{(~pa & ad) | ~ad, (pa & ad) | ~ad}; }\n";
        body += line;
        return true;
      }
      case NodeOp::Equal: {
        size_t m = node.inputs.size() / 2;
        std::string line =
            "  { uint64_t ad = ~0ull, uq = 0, dp; LP a, b; ";
        for (size_t k = 0; k < m; ++k) {
          if (!denseInput(ni, k, i0)) return false;
          if (!denseInput(ni, k + m, i1)) return false;
          line += "a = gi(" + netRef(i0) + "); b = gi(" + netRef(i1) +
                  "); dp = ~(a.p0 & a.p1) & ~(b.p0 & b.p1); ad &= dp; "
                  "uq |= dp & ((a.p1 & ~a.p0) ^ (b.p1 & ~b.p0)); ";
        }
        line += "uint64_t on = ad & ~uq; (void)dp; " + t +
                " = LP{~on, ~uq}; }\n";
        body += line;
        return true;
      }
      case NodeOp::Switch:
        if (!denseInput(ni, 0, i0)) return false;
        if (!denseInput(ni, 1, i1)) return false;
        body += "  { LP c = gi(" + netRef(i0) + "); LP d = " + netRef(i1) +
                "; uint64_t co = c.p1 & ~c.p0, cu = c.p0 & c.p1; " + t +
                " = LP{(co & d.p0) | cu, (co & d.p1) | cu}; }\n";
        return true;
      case NodeOp::Reg:
        return fail("REG node in the evaluation schedule");
    }
    return fail("unknown node op");
  }

  bool run() {
    if (!g.design) return fail("graph has no design");
    if (g.hasCycle) {
      return fail("cannot compile a cyclic design: " + g.cycleDescription);
    }
    if (!buildSlots()) return false;

    uint64_t fires = 0, cchecks = 0;
    for (size_t i = 0; i < g.denseCount; ++i) {
      if (g.nets[i].multiDriven) ++cchecks;
    }
    for (const SimGraph::Step& op : g.schedule) {
      if (op.isNode) {
        ++fires;
        if (!emitNode(op.index)) return false;
      } else {
        if (!emitResolve(op.index)) return false;
      }
    }

    const uint64_t designHash = designContentHash(*g.design);
    const std::string stamp = buildinfo::gitDescribe();
    std::string out;
    out.reserve(body.size() + 4096);
    out +=
        "// Generated by zeus codegen (src/codegen/emit.cpp); do not "
        "edit.\n";
    out += "// design \"" + escapeString(g.design->topName) + "\" hash " +
           hexU64(designHash) + " opt " + num(opts.optLevel) + "\n";
    out += "// nets=" + num(g.denseCount) + " regs=" +
           num(g.regNodes.size()) + " slots=" + num(slots) + " random=" +
           num(randomNodes) + " build=" + escapeString(stamp) + "\n";
    out += R"(#include <stdint.h>

struct LP { uint64_t p0; uint64_t p1; };

// Mirror of zeus::codegen ABI v1 (src/codegen/abi.h): field order and
// types must match exactly; the loader validates abiVersion + designHash.
struct ZeusFaultsV1 {
  const uint64_t* force0;
  const uint64_t* force1;
  const uint64_t* forceUndef;
  const uint64_t* flip;
  const uint64_t* contend;
};
struct ZeusCompiledDesignV1 {
  uint32_t abiVersion;
  uint32_t optLevel;
  uint64_t designHash;
  uint32_t denseCount;
  uint32_t regCount;
  uint32_t nodeSlots;
  uint32_t randomNodes;
  uint64_t nodeFiringsPerCycle;
  uint64_t netResolutionsPerCycle;
  uint64_t contentionChecksPerCycle;
  const char* buildStamp;
  const char* designName;
  void (*evaluate)(const LP*, const LP*, uint64_t*, uint64_t,
                   const ZeusFaultsV1*, LP*, uint64_t*, uint64_t*,
                   uint32_t*, uint32_t*, LP*);
};

namespace {

// NOINFL lanes read as UNDEF at gate inputs (laneGateInput).
inline LP gi(LP c) {
  uint64_t n = ~(c.p0 | c.p1);
  return LP{c.p0 | n, c.p1 | n};
}

// One RANDOM draw on all 64 lanes (per-lane xorshift64, LSB is the bit).
inline LP rnd(uint64_t* g) {
  uint64_t b = 0;
  for (unsigned l = 0; l < 64; ++l) {
    uint64_t s = g[l];
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    g[l] = s;
    b |= (s & 1u) << l;
  }
  return LP{~b, b};
}

// ZC: one §8 strength-rule contribution — first active lane wins, a
// second active contribution marks the lane multi-driven.
// ZW: finish a net — colliding lanes resolve to UNDEF, the fault overlay
// mirrors applyScalarFault per lane, then values/active masks land and a
// contended net is pushed onto the collision list.
#define ZC(x) { LP c_ = (x); uint64_t a_ = c_.p0 | c_.p1; m |= s & a_; r.p0 |= c_.p0 & ~s; r.p1 |= c_.p1 & ~s; s |= a_; }
#define ZW(i) r.p0 |= m; r.p1 |= m; if (flt) { uint64_t f0_ = flt->force0[i], f1_ = flt->force1[i], fu_ = flt->forceUndef[i], ff_ = flt->flip[i], fc_ = flt->contend[i]; if (f0_ | f1_ | fu_ | ff_ | fc_) { uint64_t fd_ = f0_ | f1_ | fu_ | fc_; r.p0 = (r.p0 & ~fd_) | f0_ | fu_ | fc_; r.p1 = (r.p1 & ~fd_) | f1_ | fu_ | fc_; uint64_t de_ = (r.p0 ^ r.p1) & ff_; r.p0 ^= de_; r.p1 ^= de_; s |= fd_; m |= fc_; } } net[i] = r; aa[i] = s; am[i] = m; if (m & lane_mask) coll[nc++] = (i);

void eval(const LP* __restrict__ in, const LP* __restrict__ reg,
          uint64_t* __restrict__ rng, uint64_t lane_mask,
          const ZeusFaultsV1* __restrict__ flt, LP* __restrict__ net,
          uint64_t* __restrict__ aa, uint64_t* __restrict__ am,
          uint32_t* __restrict__ coll, uint32_t* __restrict__ ncoll,
          LP* __restrict__ t) {
  uint32_t nc = 0;
  (void)in; (void)reg; (void)rng; (void)lane_mask; (void)flt;
  (void)net; (void)aa; (void)am; (void)coll; (void)t;
)";
    out += body;
    out += R"(  *ncoll = nc;
}

#undef ZC
#undef ZW

const char kBuildStamp[] = ")" +
           escapeString(stamp) + "\";\n";
    out += "const char kDesignName[] = \"" +
           escapeString(g.design->topName) + "\";\n";
    out += "const ZeusCompiledDesignV1 kDesign = {\n";
    out += "  " + num(kAbiVersion) + "u, " + num(opts.optLevel) + "u, " +
           hexU64(designHash) + ",\n";
    out += "  " + num(g.denseCount) + "u, " + num(g.regNodes.size()) +
           "u, " + num(slots) + "u, " + num(randomNodes) + "u,\n";
    out += "  " + num(fires) + "ull, " + num(g.denseCount) + "ull, " +
           num(cchecks) + "ull,\n";
    out += "  kBuildStamp, kDesignName, &eval,\n};\n\n";
    out += "}  // namespace\n\n";
    out += "extern \"C\" const ZeusCompiledDesignV1* ";
    out += kEntrySymbol;
    out += "() { return &kDesign; }\n";

    r.ok = true;
    r.source = std::move(out);
    r.designHash = designHash;
    r.denseCount = static_cast<uint32_t>(g.denseCount);
    r.regCount = static_cast<uint32_t>(g.regNodes.size());
    r.nodeSlots = slots;
    r.randomNodes = randomNodes;
    r.nodeFiringsPerCycle = fires;
    r.netResolutionsPerCycle = g.denseCount;
    r.contentionChecksPerCycle = cchecks;
    return true;
  }
};

}  // namespace

EmitResult emitCompiledCpp(const SimGraph& graph, const EmitOptions& opts) {
  ZEUS_TRACE_SPAN("codegen-emit", "codegen");
  if (!graph.design) {
    EmitResult r;
    r.error = "graph has no design";
    return r;
  }
  Emitter e{graph, graph.design->netlist, opts};
  e.run();
  return std::move(e.r);
}

}  // namespace zeus::codegen
