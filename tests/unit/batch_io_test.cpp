// Differential tests for BatchSimulation's word-level lane I/O: resolved
// PortHandles, staged per-lane writes (flushed by a bit transpose at the
// next evaluation or snapshot) and the per-port decoded output cache.
// Handle calls and string calls must leave the same planes, and every
// lane must read what a scalar Simulation fed the same writes reads —
// including a staged value later overridden on the same (port, lane),
// snapshots and resets with writes still staged, ports wider than 64
// bits, batches narrower than 64 lanes and ports aliased by `==`.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>

#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

using PortHandle = BatchSimulation::PortHandle;

const char* kMixedPorts = R"(
TYPE t = COMPONENT (IN c: boolean; IN a: ARRAY[1..8] OF boolean;
                    IN w: ARRAY[1..70] OF boolean;
                    OUT s, q: ARRAY[1..8] OF boolean;
                    OUT wo: ARRAY[1..70] OF boolean) IS
  SIGNAL r: ARRAY[1..8] OF REG;
BEGIN
  FOR i := 1 TO 8 DO
    s[i] := XOR(a[i], c);
    r[i].in := a[i];
    q[i] := r[i].out
  END;
  FOR i := 1 TO 70 DO wo[i] := w[i] END
END;
SIGNAL top: t;
)";

// x and y are one alias class: a write through either port lands on the
// same nets, so the last write must win.
const char* kAliasedPorts = R"(
TYPE t = COMPONENT (x, y: ARRAY[1..4] OF multiplex; IN c: boolean;
                    OUT o: ARRAY[1..4] OF boolean) IS
BEGIN
  x == y;
  FOR i := 1 TO 4 DO o[i] := XOR(x[i], c) END
END;
SIGNAL top: t;
)";

/// Reference for outputUint: the per-bit decode of the old string path.
std::optional<uint64_t> referenceUint(const BatchSimulation& b, size_t lane,
                                      PortHandle p) {
  uint64_t value = 0;
  for (size_t i = 0; i < b.portWidth(p); ++i) {
    const Logic v = laneValue(b.portPlanes(p, i), static_cast<uint32_t>(lane));
    if (!isDefined(v)) return std::nullopt;
    if (v == Logic::One) {
      if (i >= 64) return std::nullopt;
      value |= uint64_t{1} << i;
    }
  }
  return value;
}

/// The same writes through handles, through names and into one scalar
/// Simulation per lane.
class Harness {
 public:
  Harness(const SimGraph& g, size_t lanes)
      : g_(g), byHandle_(g, lanes), byName_(g, lanes) {
    scalars_.reserve(lanes);
    for (size_t l = 0; l < lanes; ++l) {
      scalars_.emplace_back(g, EvaluatorKind::Levelized);
    }
  }

  [[nodiscard]] size_t lanes() const { return scalars_.size(); }
  [[nodiscard]] size_t ports() const { return g_.design->ports.size(); }
  [[nodiscard]] const Port& port(size_t i) const {
    return g_.design->ports[i];
  }
  BatchSimulation& batch() { return byHandle_; }

  void setUint(size_t lane, size_t p, uint64_t v) {
    byHandle_.setInputUint(lane, handle(p), v);
    byName_.setInputUint(lane, port(p).name, v);
    scalars_[lane].setInputUint(port(p).name, v);
  }
  void setLogic(size_t lane, size_t p, Logic v) {
    byHandle_.setInput(lane, handle(p), v);
    byName_.setInput(lane, port(p).name, v);
    scalars_[lane].setInput(port(p).name, v);
  }
  void setBits(size_t lane, size_t p, const std::vector<Logic>& bits) {
    byHandle_.setInput(lane, handle(p), bits);
    byName_.setInput(lane, port(p).name, bits);
    scalars_[lane].setInput(port(p).name, bits);
  }
  void clear(size_t lane, size_t p) {
    byHandle_.clearInput(lane, handle(p));
    byName_.clearInput(lane, port(p).name);
    scalars_[lane].clearInput(port(p).name);
  }
  void setAll(size_t p, Logic v) {
    byHandle_.setInputAll(handle(p), v);
    byName_.setInputAll(port(p).name, v);
    for (Simulation& s : scalars_) {
      s.setInput(port(p).name, std::vector<Logic>(port(p).nets.size(), v));
    }
  }
  void step() {
    byHandle_.step();
    byName_.step();
    for (Simulation& s : scalars_) s.step();
  }
  void reset() {
    byHandle_.reset();
    byName_.reset();
    for (Simulation& s : scalars_) s.reset();
  }
  /// Copies lane `from` into lane `to` through a snapshot.
  void copyLane(size_t from, size_t to) {
    const SimSnapshot snap = byHandle_.saveSnapshot(from);
    const SimSnapshot ref = scalars_[from].saveSnapshot();
    EXPECT_EQ(snap.inputValues, ref.inputValues) << "lane " << from;
    EXPECT_EQ(snap.inputSet, ref.inputSet) << "lane " << from;
    EXPECT_EQ(snap.regValues, ref.regValues) << "lane " << from;
    byHandle_.restoreSnapshot(to, snap);
    byName_.restoreSnapshot(to, byName_.saveSnapshot(from));
    scalars_[to].restoreSnapshot(ref);
  }

  /// Every lane of both batches against its scalar, every port bit's
  /// planes handle-vs-name, and outputUint against the per-bit decode.
  void expectAgree(const std::string& where) {
    for (size_t p = 0; p < ports(); ++p) {
      for (size_t i = 0; i < port(p).nets.size(); ++i) {
        const LanePlanes h = byHandle_.portPlanes(handle(p), i);
        const LanePlanes n = byName_.portPlanes(handle(p), i);
        ASSERT_EQ(h.p0, n.p0) << where << ": " << port(p).name << "[" << i
                              << "]";
        ASSERT_EQ(h.p1, n.p1) << where << ": " << port(p).name << "[" << i
                              << "]";
      }
      for (size_t l = 0; l < lanes(); ++l) {
        const std::string& name = port(p).name;
        ASSERT_EQ(byHandle_.outputBits(l, name), scalars_[l].outputBits(name))
            << where << ": lane " << l << " port " << name;
        ASSERT_EQ(byHandle_.outputUint(l, handle(p)),
                  scalars_[l].outputUint(name))
            << where << ": lane " << l << " port " << name;
        ASSERT_EQ(byName_.outputUint(l, name), scalars_[l].outputUint(name))
            << where << ": lane " << l << " port " << name;
      }
    }
    const Netlist& nl = g_.design->netlist;
    for (size_t l = 0; l < lanes(); ++l) {
      for (NetId n = 0; n < nl.netCount(); ++n) {
        ASSERT_EQ(byHandle_.netValue(l, n), scalars_[l].netValue(n))
            << where << ": lane " << l << " net " << nl.net(n).name;
      }
    }
  }

 private:
  [[nodiscard]] PortHandle handle(size_t p) const {
    return byHandle_.port(port(p).name);
  }

  const SimGraph& g_;
  BatchSimulation byHandle_;
  BatchSimulation byName_;
  std::vector<Simulation> scalars_;
};

struct Graph {
  Built built;
  SimGraph g;
};

std::unique_ptr<Graph> buildGraph(const char* src) {
  auto out = std::make_unique<Graph>();
  out->built = buildOk(src, "top");
  EXPECT_NE(out->built.design, nullptr);
  if (!out->built.design) return nullptr;
  out->g = buildSimGraph(*out->built.design, out->built.comp->diags());
  EXPECT_FALSE(out->g.hasCycle);
  return out;
}

size_t portIndex(const Graph& g, const std::string& name) {
  const std::vector<Port>& ports = g.built.design->ports;
  for (size_t i = 0; i < ports.size(); ++i) {
    if (ports[i].name == name) return i;
  }
  ADD_FAILURE() << "no port " << name;
  return 0;
}

TEST(BatchIo, TransposeMatchesBitByBitReference) {
  std::mt19937_64 rng(7);
  for (size_t rows : {1u, 3u, 8u, 33u, 64u}) {
    for (size_t cols : {1u, 5u, 8u, 40u, 64u}) {
      std::vector<uint64_t> in(rows), out(cols);
      for (uint64_t& v : in) v = rng();
      transposeLaneBits(in.data(), rows, cols, out.data());
      for (size_t c = 0; c < cols; ++c) {
        uint64_t want = 0;
        for (size_t r = 0; r < rows; ++r) want |= ((in[r] >> c) & 1) << r;
        ASSERT_EQ(out[c], want) << rows << "x" << cols << " column " << c;
      }
    }
  }
}

// outputUint decodes every lane of a port at once from word-level masks;
// it must agree with the per-bit laneValue decode on arbitrary planes
// (all four values, ONE above bit 63) for every lane.
TEST(BatchIo, OutputUintMatchesLaneValueOnRandomPlanes) {
  std::mt19937_64 rng(11);
  for (int width : {1, 32, 64, 65}) {
    const std::string src =
        "TYPE t = COMPONENT (IN a: ARRAY[1.." + std::to_string(width) +
        "] OF boolean; OUT o: ARRAY[1.." + std::to_string(width) +
        "] OF boolean) IS\nBEGIN\n  FOR i := 1 TO " + std::to_string(width) +
        " DO o[i] := a[i] END\nEND;\nSIGNAL top: t;\n";
    auto g = buildGraph(src.c_str());
    ASSERT_NE(g, nullptr);
    for (size_t lanes : {size_t{64}, size_t{13}}) {
      BatchSimulation batch(g->g, lanes);
      const PortHandle a = batch.port("a"), o = batch.port("o");
      ASSERT_EQ(batch.portWidth(a), static_cast<size_t>(width));
      for (int trial = 0; trial < 20; ++trial) {
        for (int i = 0; i < width; ++i) {
          // Mostly defined lanes, with ~1/16 of lane-bits UNDEF or NOINFL.
          const uint64_t one = rng(), odd = rng() & rng() & rng() & rng();
          const uint64_t kind = rng();
          const uint64_t p0 = (~one & ~odd) | (odd & kind);
          const uint64_t p1 = (one & ~odd) | (odd & kind);
          batch.setInputPlanes(a, static_cast<size_t>(i), ~uint64_t{0},
                               {p0, p1});
        }
        if (trial % 4 == 0) {
          for (size_t l = 0; l < lanes; l += 3) batch.setInputUint(l, a, rng());
        }
        batch.evaluateOnly();
        for (PortHandle p : {a, o}) {
          for (size_t l = 0; l < lanes; ++l) {
            ASSERT_EQ(batch.outputUint(l, p), referenceUint(batch, l, p))
                << "width " << width << " lanes " << lanes << " trial "
                << trial << " lane " << l;
          }
        }
      }
    }
  }
}

// A staged setInputUint followed by a direct write to the same port and
// lane before the next step: the direct write is the later one and wins.
TEST(BatchIo, DirectWriteAfterStagedWriteWins) {
  auto g = buildGraph(kMixedPorts);
  ASSERT_NE(g, nullptr);
  const size_t c = portIndex(*g, "c"), a = portIndex(*g, "a");
  for (int override = 0; override < 5; ++override) {
    Harness h(g->g, 4);
    for (size_t l = 0; l < h.lanes(); ++l) {
      h.setUint(l, a, 0xA5 + l);
      h.setLogic(l, c, logicFromBool(l & 1));
    }
    const std::string what[5] = {"setInput(Undef)", "clearInput",
                                 "setInputAll", "setInput(vector)",
                                 "setInputUint again"};
    switch (override) {
      case 0:
        h.setLogic(1, c, Logic::Undef);
        h.setBits(2, a, std::vector<Logic>(8, Logic::Undef));
        break;
      case 1:
        h.clear(1, c);
        h.clear(2, a);
        break;
      case 2:
        h.setAll(a, Logic::One);
        h.setAll(c, Logic::Undef);
        break;
      case 3:
        h.setBits(2, a, {Logic::One, Logic::Zero, Logic::Undef, Logic::One,
                         Logic::Zero, Logic::Zero, Logic::One, Logic::One});
        break;
      case 4:
        h.setBits(3, a, std::vector<Logic>(8, Logic::Undef));
        h.setUint(3, a, 0x3C);  // restaged after a direct write
        break;
    }
    h.step();
    h.expectAgree(what[override]);
    h.step();  // registers now hold the first cycle's a
    h.expectAgree(what[override] + ", second cycle");
  }
}

TEST(BatchIo, SnapshotsFlushStagedWrites) {
  auto g = buildGraph(kMixedPorts);
  ASSERT_NE(g, nullptr);
  const size_t c = portIndex(*g, "c"), a = portIndex(*g, "a"),
               w = portIndex(*g, "w");
  Harness h(g->g, 5);
  for (size_t l = 0; l < h.lanes(); ++l) {
    h.setUint(l, a, 17 * l);
    h.setLogic(l, c, Logic::One);
  }
  h.step();
  // Staged, not yet evaluated: a snapshot must see them, and a restore
  // into a lane with its own staged writes must replace them.
  h.setUint(0, a, 0x81);
  h.setUint(0, w, ~uint64_t{0});
  h.setUint(3, a, 0x42);
  h.copyLane(0, 3);
  h.step();
  h.expectAgree("after snapshot copy");
  h.step();
  h.expectAgree("after snapshot copy, second cycle");
}

TEST(BatchIo, ResetDiscardsStagedWrites) {
  auto g = buildGraph(kMixedPorts);
  ASSERT_NE(g, nullptr);
  const size_t c = portIndex(*g, "c"), a = portIndex(*g, "a");
  Harness h(g->g, 3);
  for (size_t l = 0; l < h.lanes(); ++l) {
    h.setUint(l, a, 0xF0 | l);
    h.setLogic(l, c, Logic::Zero);
  }
  h.step();
  h.setUint(1, a, 0x0F);  // staged, then thrown away
  h.reset();
  for (int i = 0; i < 2; ++i) {
    h.step();
    h.expectAgree("after reset, cycle " + std::to_string(i));
  }
  EXPECT_FALSE(h.batch().outputUint(1, "q").has_value());
}

TEST(BatchIo, WidePortsZeroBitsAbove63) {
  auto g = buildGraph(kMixedPorts);
  ASSERT_NE(g, nullptr);
  const size_t w = portIndex(*g, "w");
  Harness h(g->g, 64);
  for (size_t l = 0; l < h.lanes(); ++l) h.setUint(l, w, ~uint64_t{0} >> l);
  h.setBits(5, w, std::vector<Logic>(70, Logic::One));  // ONE above 63
  h.step();
  h.expectAgree("70-bit port");
  EXPECT_EQ(h.batch().outputUint(9, "wo"), ~uint64_t{0} >> 9);
  EXPECT_FALSE(h.batch().outputUint(5, "wo").has_value());
}

TEST(BatchIo, AliasedPortsLastWriteWins) {
  auto g = buildGraph(kAliasedPorts);
  ASSERT_NE(g, nullptr);
  const size_t x = portIndex(*g, "x"), y = portIndex(*g, "y"),
               c = portIndex(*g, "c");
  Harness h(g->g, 4);
  for (size_t l = 0; l < h.lanes(); ++l) h.setLogic(l, c, Logic::Zero);
  h.setUint(0, x, 0b1010);
  h.setUint(0, y, 0b0101);
  h.setUint(1, y, 0b0101);
  h.setUint(1, x, 0b1010);
  h.setUint(2, x, 0b0011);
  h.clear(2, y);
  h.setBits(3, y, {Logic::One, Logic::Undef, Logic::Zero, Logic::One});
  h.setUint(3, x, 0b1111);
  h.step();
  h.expectAgree("aliased ports");
  EXPECT_EQ(h.batch().outputUint(0, "o"), 0b0101u);
  EXPECT_EQ(h.batch().outputUint(1, "o"), 0b1010u);
  EXPECT_EQ(h.batch().outputUint(3, "o"), 0b1111u);
}

// Random interleavings of every write kind, steps, snapshot copies and
// resets, on 64 lanes and on a narrower batch.
TEST(BatchIo, RandomWriteSequencesMatchScalar) {
  for (const char* src : {kMixedPorts, kAliasedPorts}) {
    auto g = buildGraph(src);
    ASSERT_NE(g, nullptr);
    for (size_t lanes : {size_t{64}, size_t{7}}) {
      Harness h(g->g, lanes);
      std::mt19937_64 rng(lanes * 31 + (src == kMixedPorts));
      auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
      const Logic values[3] = {Logic::Zero, Logic::One, Logic::Undef};
      for (int op = 0; op < 1500; ++op) {
        const size_t lane = pick(lanes), p = pick(h.ports());
        const size_t width = h.port(p).nets.size();
        switch (pick(10)) {
          case 0: case 1: case 2: h.setUint(lane, p, rng()); break;
          case 3:
            if (width == 1) h.setLogic(lane, p, values[pick(3)]);
            break;
          case 4: {
            std::vector<Logic> bits(width);
            for (Logic& b : bits) b = values[pick(3)];
            h.setBits(lane, p, bits);
            break;
          }
          case 5: h.clear(lane, p); break;
          case 6:
            if (pick(8) == 0) h.setAll(p, values[pick(3)]);
            break;
          case 7:
            if (pick(6) == 0) h.copyLane(lane, pick(lanes));
            break;
          case 8:
            if (pick(40) == 0) h.reset();
            break;
          case 9:
            h.step();
            h.expectAgree("op " + std::to_string(op));
            if (testing::Test::HasFatalFailure()) return;
            break;
        }
      }
    }
  }
}

// errors() is ordered by (cycle, lane, net name) whatever the schedule
// order: two contending nets whose names sort opposite to their
// declaration, contending on different lane sets over several cycles,
// must give exactly the scalar runs' records merged in that order.
TEST(BatchIo, ContentionErrorsOrderedByCycleLaneName) {
  const char* src = R"(
TYPE t = COMPONENT (IN a, b, c, d: boolean; OUT o, p: boolean) IS
  SIGNAL zed: multiplex;
  SIGNAL alpha: multiplex;
BEGIN
  IF a THEN zed := 1 END;
  IF b THEN zed := 0 END;
  IF c THEN alpha := 0 END;
  IF d THEN alpha := 1 END;
  o := zed;
  p := alpha
END;
SIGNAL top: t;
)";
  auto g = buildGraph(src);
  ASSERT_NE(g, nullptr);
  constexpr size_t kLanes = 9;
  BatchSimulation batch(g->g, kLanes);
  std::vector<Simulation> scalars;
  for (size_t l = 0; l < kLanes; ++l) {
    scalars.emplace_back(g->g, EvaluatorKind::Levelized);
  }
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (size_t l = 0; l < kLanes; ++l) {
      // zed contends on lanes l % 3 == cycle % 3, alpha on odd lanes.
      const bool z = l % 3 == static_cast<size_t>(cycle) % 3, al = l % 2;
      const Logic in[4] = {logicFromBool(z), logicFromBool(z),
                           logicFromBool(al), logicFromBool(al)};
      const char* names[4] = {"a", "b", "c", "d"};
      for (int i = 0; i < 4; ++i) {
        batch.setInput(l, names[i], in[i]);
        scalars[l].setInput(names[i], in[i]);
      }
    }
    batch.step();
    for (Simulation& s : scalars) s.step();
  }
  std::vector<SimError> want;
  for (size_t l = 0; l < kLanes; ++l) {
    for (SimError e : scalars[l].errors()) {
      e.lane = static_cast<int32_t>(l);
      want.push_back(std::move(e));
    }
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const SimError& x, const SimError& y) {
                     return std::tie(x.cycle, x.lane, x.netName) <
                            std::tie(y.cycle, y.lane, y.netName);
                   });
  ASSERT_EQ(batch.errors(), want);
  // Both nets on one lane and cycle: alpha's record comes first.
  bool sawBoth = false;
  for (size_t i = 1; i < want.size(); ++i) {
    if (want[i].cycle == want[i - 1].cycle &&
        want[i].lane == want[i - 1].lane) {
      EXPECT_LT(want[i - 1].netName, want[i].netName);
      sawBoth = true;
    }
  }
  EXPECT_TRUE(sawBoth);
}

}  // namespace
}  // namespace zeus::test
