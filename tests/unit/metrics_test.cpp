// Observability layer: trace spans (enable/disable semantics, Chrome
// trace_event JSON shape), lock-free counters, phase-timing aggregation,
// the per-net activity profiler and the zeus-metrics-v1 renderer.
//
// The trace buffer is process-global, so every test here clears it and
// leaves tracing disabled on exit — gtest runs tests in one process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/batch_sim.h"
#include "src/sim/fault.h"
#include "src/support/eventlog.h"
#include "src/support/metrics.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::setEnabled(false);
    trace::clear();
  }
  void TearDown() override {
    trace::setEnabled(false);
    trace::clear();
  }
};

TEST_F(TraceFixture, DisabledSpansRecordNothing) {
  { ZEUS_TRACE_SPAN("off-span", "test"); }
  EXPECT_EQ(trace::eventCount(), 0u);
}

TEST_F(TraceFixture, EnabledSpansRecordNameCategoryAndDuration) {
  trace::setEnabled(true);
  { ZEUS_TRACE_SPAN("my-phase", "test"); }
  ASSERT_EQ(trace::eventCount(), 1u);
  std::vector<trace::Event> events = trace::snapshot();
  EXPECT_STREQ(events[0].name, "my-phase");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_GT(events[0].startUs, 0u);
  EXPECT_GT(events[0].tid, 0u);
}

TEST_F(TraceFixture, ToggleMidSpanNeverHalfRecords) {
  // A span that starts disabled records nothing even if tracing turns on
  // before it closes (no bogus start timestamp).  A span that starts
  // enabled but is disabled mid-span is dropped too: setEnabled(false)
  // retires the buffer generation, so straddling spans cannot resurrect
  // events into buffers the caller believes are quiescent (the
  // thread-safety contract in src/support/trace.h).
  {
    ZEUS_TRACE_SPAN("started-off", "test");
    trace::setEnabled(true);
  }
  EXPECT_EQ(trace::eventCount(), 0u);
  {
    ZEUS_TRACE_SPAN("started-on", "test");
    trace::setEnabled(false);
  }
  EXPECT_EQ(trace::eventCount(), 0u);
  // A span fully inside one enabled generation records normally.
  trace::setEnabled(true);
  {
    ZEUS_TRACE_SPAN("clean", "test");
    (void)0;
  }
  EXPECT_EQ(trace::eventCount(), 1u);
}

TEST_F(TraceFixture, ChromeJsonShape) {
  trace::setEnabled(true);
  { ZEUS_TRACE_SPAN("alpha", "compile"); }
  { ZEUS_TRACE_SPAN("beta", "sim"); }
  trace::setEnabled(false);
  std::string json = trace::renderChromeJson();

  // The envelope Perfetto requires.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("]}"), std::string::npos) << json;
  // Complete-duration events with the mandatory fields.
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"compile\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":"), std::string::npos) << json;
  // "alpha" opened (and therefore started) before "beta"; snapshot sorts
  // by start time.
  EXPECT_LT(json.find("alpha"), json.find("beta"));
}

TEST_F(TraceFixture, EmptyBufferRendersValidEnvelope) {
  EXPECT_EQ(trace::renderChromeJson(), "{\"traceEvents\":[]}\n");
}

TEST_F(TraceFixture, PhaseTimingsAggregateByNameAndCategory) {
  trace::setEnabled(true);
  { ZEUS_TRACE_SPAN("parse", "compile"); }
  { ZEUS_TRACE_SPAN("parse", "compile"); }
  { ZEUS_TRACE_SPAN("elab", "compile"); }
  {
    // Usually opened in the same microsecond: the enclosing span, which
    // opened first, must still come first.
    ZEUS_TRACE_SPAN("optimize", "compile");
    ZEUS_TRACE_SPAN("graph-build", "compile");
  }
  trace::setEnabled(false);
  std::vector<metrics::PhaseTiming> timings = metrics::phaseTimings();
  ASSERT_EQ(timings.size(), 4u);
  EXPECT_EQ(timings[0].name, "parse");
  EXPECT_EQ(timings[0].count, 2u);
  EXPECT_EQ(timings[1].name, "elab");
  EXPECT_EQ(timings[1].count, 1u);
  EXPECT_EQ(timings[2].name, "optimize");
  EXPECT_EQ(timings[3].name, "graph-build");
}

TEST_F(TraceFixture, CompilePipelineEmitsPhaseSpans) {
  trace::setEnabled(true);
  Built b = buildOk(
      "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS\n"
      "BEGIN q := NOT a END;\nSIGNAL top: t;\n",
      "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation sim(g, EvaluatorKind::Levelized);
  sim.step(2);
  trace::setEnabled(false);

  std::vector<std::string> names;
  for (const trace::Event& e : trace::snapshot()) names.push_back(e.name);
  for (const char* want :
       {"lex", "parse", "sema", "elab", "graph-build", "levelize",
        "simulate"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << "missing span '" << want << "'";
  }
}

size_t spanCount(const char* name) {
  size_t n = 0;
  for (const trace::Event& e : trace::snapshot()) {
    if (std::string(e.name) == name) ++n;
  }
  return n;
}

// The graph and its levelized schedule are built once per buildSimGraph
// call; the optimizer builds at most twice and no engine re-levelizes.
TEST_F(TraceFixture, ScheduleIsBuiltOncePerGraph) {
  const char* src =
      "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS\n"
      "  SIGNAL r: REG;\n"
      "BEGIN r.in := a; q := NOT r.out END;\nSIGNAL top: t;\n";
  for (int level : {0, 1}) {
    Built b = buildOk(src, "top");
    trace::clear();
    trace::setEnabled(true);
    b.comp->optimize(*b.design, OptOptions{.level = level});
    trace::setEnabled(false);
    EXPECT_EQ(spanCount("graph-build"), level == 0 ? 1u : 2u)
        << "-O" << level;
    EXPECT_EQ(spanCount("levelize"), spanCount("graph-build"))
        << "-O" << level;
  }

  Built b = buildOk(src, "top");
  trace::clear();
  trace::setEnabled(true);
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  EXPECT_EQ(spanCount("levelize"), 1u);
  trace::clear();
  {
    Simulation sim(g, EvaluatorKind::Levelized);
    BatchSimulation batch(g);
    FaultCampaignOptions opts;
    opts.cycles = 4;
    FaultCampaignReport rep = runFaultCampaign(g, opts);
    EXPECT_GT(rep.totalBatches, 0u);
  }
  trace::setEnabled(false);
  EXPECT_EQ(spanCount("levelize"), 0u);
  EXPECT_EQ(spanCount("graph-build"), 0u);
}

TEST(MetricsCounter, SumsAcrossThreads) {
  static metrics::Counter counter("test-counter");
  uint64_t before = counter.value();
  counter.add(2);
  std::thread other([] { counter.add(40); });
  other.join();
  EXPECT_EQ(counter.value(), before + 42);
  std::vector<std::pair<std::string, uint64_t>> all =
      metrics::Counter::allValues();
  bool found = false;
  for (const auto& [name, value] : all) {
    if (name == "test-counter") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MetricsCounter, ExitedThreadsKeepTotalsAndRecycleTheirCells) {
  static metrics::Counter counter("test-counter-short-lived");
  auto reported = [] {
    for (const auto& [name, value] : metrics::Counter::allValues()) {
      if (name == "test-counter-short-lived") return value;
    }
    return uint64_t{0};
  };
  std::thread([] { counter.add(1); }).join();
  const uint64_t before = counter.value();
  const size_t slots = telemetry::slotCount();
  for (int i = 0; i < 64; ++i) {
    std::thread([] { counter.add(1); }).join();
  }
  EXPECT_EQ(counter.value(), before + 64);
  EXPECT_EQ(telemetry::slotCount(), slots);
  EXPECT_EQ(reported(), before + 64);

  // With every sink on, each short-lived thread also closes a span and
  // emits a log line: all of it stays visible and still no slot is added.
  const std::string dump =
      testing::TempDir() + "/zeus_metrics_short_lived.json";
  trace::setEnabled(true);
  trace::clear();
  eventlog::setEnabled(true);
  eventlog::clear();
  flightrec::arm(dump.c_str());
  for (int i = 0; i < 64; ++i) {
    std::thread([] {
      trace::Span span("short-lived", "test");
      eventlog::emit(eventlog::Severity::Info, "test", "short-lived");
      counter.add(1);
    }).join();
  }
  const std::vector<trace::Event> spans = trace::snapshot();
  EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                          [](const trace::Event& e) {
                            return std::string(e.name) == "short-lived";
                          }),
            64);
  const std::string jsonl = eventlog::renderJsonl();
  size_t lines = 0;
  for (size_t at = jsonl.find("\"ev\": \"short-lived\"");
       at != std::string::npos;
       at = jsonl.find("\"ev\": \"short-lived\"", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 64u);
  EXPECT_EQ(counter.value(), before + 128);
  EXPECT_EQ(reported(), before + 128);
  EXPECT_EQ(telemetry::slotCount(), slots);
  flightrec::disarm();
  eventlog::setEnabled(false);
  eventlog::clear();
  trace::setEnabled(false);
  trace::clear();
  std::remove(dump.c_str());
}

TEST(MetricsSim, CountersAndActivityFromARealRun) {
  // a toggles every cycle through the register; q = NOT r.out toggles too.
  Built b = buildOk(
      "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS\n"
      "  SIGNAL r: REG;\n"
      "BEGIN r.in := a; q := NOT r.out END;\nSIGNAL top: t;\n",
      "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation::Options opts;
  opts.evaluator = EvaluatorKind::Levelized;
  opts.profileActivity = true;
  Simulation sim(g, opts);
  for (int i = 0; i < 8; ++i) {
    sim.setInput("a", logicFromBool(i % 2));
    sim.step();
  }

  metrics::SimCounters c = sim.metricsCounters();
  EXPECT_TRUE(c.ran);
  EXPECT_EQ(c.evaluator, "levelized");
  EXPECT_EQ(c.cycles, 8u);
  EXPECT_EQ(c.lanes, 1u);
  EXPECT_EQ(c.laneCycles, 8u);
  EXPECT_GT(c.nodeFirings, 0u);
  EXPECT_GT(c.netResolutions, 0u);
  EXPECT_EQ(c.epochResets, 8u);
  EXPECT_EQ(c.watchdogMarginMin, -1);  // levelized has no watchdog
  EXPECT_EQ(c.faults, 0u);

  metrics::ActivityReport a = sim.activityReport();
  EXPECT_TRUE(a.ran);
  EXPECT_EQ(a.cycles, 8u);
  EXPECT_EQ(a.netsProfiled, g.denseCount);
  EXPECT_GT(a.totalToggles, 0u);
  ASSERT_FALSE(a.hottest.empty());
  // Hottest entries carry real toggle counts in descending order.
  for (size_t i = 1; i < a.hottest.size(); ++i) {
    EXPECT_GE(a.hottest[i - 1].toggles, a.hottest[i].toggles);
  }
  ASSERT_FALSE(a.deepest.empty());
  for (size_t i = 1; i < a.deepest.size(); ++i) {
    EXPECT_GE(a.deepest[i - 1].depth, a.deepest[i].depth);
  }
  // The input `a` toggled every profiled cycle boundary (7 boundaries).
  bool sawInput = false;
  for (const metrics::ActivityEntry& e : a.hottest) {
    if (e.toggles == 7) sawInput = true;
  }
  EXPECT_TRUE(sawInput) << "no net toggled on all 7 cycle boundaries";
}

TEST(MetricsSim, ProfilingOffMeansNoActivityReport) {
  Built b = buildOk(
      "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS\n"
      "BEGIN q := NOT a END;\nSIGNAL top: t;\n",
      "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation sim(g, EvaluatorKind::Firing);
  sim.step(4);
  metrics::ActivityReport a = sim.activityReport();
  EXPECT_FALSE(a.ran);
  EXPECT_TRUE(a.hottest.empty());
  // The firing evaluator's watchdog margin is tracked regardless.
  metrics::SimCounters c = sim.metricsCounters();
  EXPECT_GE(c.watchdogMarginMin, 0);
}

TEST(MetricsSim, FiringCountersCoverShortCircuitAndResolution) {
  // OR(a, b) with a = 1 lets the firing evaluator short-circuit b's
  // arrival; every net resolves exactly once per cycle.
  Built b = buildOk(
      "TYPE t = COMPONENT (IN a: boolean; IN bb: boolean; OUT q: boolean)\n"
      "IS BEGIN q := OR(a, bb) END;\nSIGNAL top: t;\n",
      "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation sim(g, EvaluatorKind::Firing);
  sim.setInput("a", Logic::One);
  sim.setInput("bb", Logic::One);
  sim.step(4);
  metrics::SimCounters c = sim.metricsCounters();
  EXPECT_EQ(c.netResolutions, 4 * g.denseCount);
  EXPECT_EQ(c.epochResets, 4u);
  EXPECT_GT(c.shortCircuitSkips, 0u);
}

TEST(MetricsRender, JsonCarriesEverySection) {
  metrics::MetricsReport r;
  r.design = "demo\"design";
  r.phases.push_back({"parse", "compile", 120, 1});
  r.sim.ran = true;
  r.sim.evaluator = "levelized";
  r.sim.cycles = 3;
  r.sim.nodeFirings = 9;
  r.activity.ran = true;
  r.activity.cycles = 3;
  r.activity.hottest.push_back({"top.q", 2, 1, 0, 4});
  std::string json = r.renderJson();
  EXPECT_NE(json.find("\"zeus-metrics\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"design\": \"demo\\\"design\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"compile\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"resources\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"node_firings\": 9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hottest\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"top.q\""), std::string::npos) << json;
  // The shared sim renderer keeps the same keys as the report section.
  std::string simJson = metrics::simCountersJson(r.sim);
  EXPECT_NE(simJson.find("\"node_firings\": 9"), std::string::npos);
  EXPECT_NE(simJson.find("\"contention_checks\": 0"), std::string::npos);
}

TEST(MetricsRender, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(metrics::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(metrics::jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace zeus::test
