// Differential tests of the 64-lane timed engine (LaneTimedSimulator) and
// the lane-parallel trace collector against their scalar references. The
// lane engine must match 64 independent scalar TimedSimulator runs
// bit-exactly — per-cycle sampled outputs, settle behavior, final net
// state — on random netlists, all twelve paper design points and the
// multiplier ISA. Because it evaluates each gate once per time slot, it is
// also checked on a reconvergent same-slot glitch, zero-delay chains and a
// mid-run forceNet. The lane TraceCollector must reproduce the sequential
// collector record for record at any lane count, including one lane, a
// width-64 adder and deep overclocks that need chunk warm-up cycles, and
// its 64-stream defect replay must equal the one-chunk-per-stream
// reference schedule, healthy and defective. Also covers the shared
// CompiledNetlist substrate and the bounded-event-budget guard against
// non-settling/cyclic netlists.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>

#include "circuits/isa_netlist.h"
#include "circuits/multiplier_netlist.h"
#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "core/isa_multiplier.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/fault_universe.h"
#include "fault/timed_fault.h"
#include "netlist/batch_evaluator.h"
#include "netlist/compiled_netlist.h"
#include "netlist/gate.h"
#include "obs/metrics.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/event_sim.h"
#include "timing/lane_sim.h"
#include "timing/sta.h"

#include "differential_harness.h"

namespace {

using oisa::circuits::SynthesizedDesign;
using oisa::netlist::CompiledNetlist;
using oisa::netlist::GateId;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::timing::CellLibrary;
using oisa::timing::DelayAnnotation;
using oisa::timing::LaneTimedSimulator;
using oisa::timing::TimedSimulator;
using oisa::timing::TimePs;

constexpr std::size_t kLanes = LaneTimedSimulator::kLanes;

using oisa::testing::randomNetlist;
using oisa::testing::unitLibrary;

/// Drives one LaneTimedSimulator and 64 scalar TimedSimulators (sharing
/// the lane engine's compile) through `cycles` clocked cycles of random
/// stimulus and asserts exact per-lane agreement: every sampled output
/// every cycle, the final settle, and every net word.
void expectLaneMatchesScalars(const Netlist& nl, const DelayAnnotation& delays,
                              TimePs periodPs, int cycles,
                              std::uint64_t stimulusSeed) {
  const auto compiled = CompiledNetlist::compile(nl);
  LaneTimedSimulator lane(compiled, delays);
  std::vector<TimedSimulator> scalars;
  scalars.reserve(kLanes);
  for (std::size_t L = 0; L < kLanes; ++L) {
    scalars.emplace_back(compiled, delays);
  }

  std::mt19937_64 rng(stimulusSeed);
  const std::size_t inputs = nl.primaryInputs().size();
  const std::size_t outputs = nl.primaryOutputs().size();
  std::vector<std::uint64_t> inWords(inputs);
  std::vector<std::uint8_t> scalarIn(inputs);
  std::vector<std::uint64_t> laneOut;
  std::vector<std::uint8_t> scalarOut;

  const auto applyAll = [&] {
    for (auto& w : inWords) w = rng();
    lane.applyInputs(inWords);
    for (std::size_t L = 0; L < kLanes; ++L) {
      for (std::size_t i = 0; i < inputs; ++i) {
        scalarIn[i] = static_cast<std::uint8_t>((inWords[i] >> L) & 1u);
      }
      scalars[L].applyInputs(scalarIn);
    }
  };

  // Settled reset vector, then overclocked cycles.
  applyAll();
  (void)lane.settlePs();
  for (auto& s : scalars) (void)s.settlePs();

  for (int t = 0; t < cycles; ++t) {
    applyAll();
    lane.advancePs(periodPs);
    lane.sampleOutputsInto(laneOut);
    for (std::size_t L = 0; L < kLanes; ++L) {
      scalars[L].advancePs(periodPs);
      scalars[L].sampleOutputsInto(scalarOut);
      for (std::size_t o = 0; o < outputs; ++o) {
        ASSERT_EQ((laneOut[o] >> L) & 1u,
                  static_cast<std::uint64_t>(scalarOut[o]))
            << "cycle " << t << " lane " << L << " output " << o;
      }
    }
  }

  // Full settle must agree lane for lane too (quiescent state check).
  (void)lane.settlePs();
  for (std::size_t L = 0; L < kLanes; ++L) {
    (void)scalars[L].settlePs();
    for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
      ASSERT_EQ((lane.netWord(NetId{n}) >> L) & 1u,
                static_cast<std::uint64_t>(scalars[L].netValue(NetId{n})))
          << "net " << n << " lane " << L;
    }
  }
}

TEST(LaneSimulatorTest, ExactAgreementOnRandomNetlists) {
  OISA_TRACE_SEED(404);
  std::mt19937_64 rng(404);
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist nl = randomNetlist(rng, 12, 80);
    DelayAnnotation delays(nl, CellLibrary::generic65());
    // Off-grid double delays exercise the shared floor quantization.
    delays.applyVariation(rng, 0.35);
    const double critical = criticalDelayNs(nl, delays);
    // Savage overclock to comfortable slack.
    for (const double frac : {0.3, 0.7, 1.5}) {
      const TimePs period = std::max<TimePs>(
          1, oisa::timing::quantizeSpanPs(critical * frac));
      expectLaneMatchesScalars(nl, delays, period, 30,
                               5000 + static_cast<std::uint64_t>(trial));
    }
  }
}

TEST(LaneSimulatorTest, ExactAgreementOnAllPaperDesigns) {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;  // exercise relaxation-mutated delays
  const auto designs = oisa::circuits::synthesizePaperDesigns(
      CellLibrary::generic65(), options);
  ASSERT_EQ(designs.size(), 12u);
  for (const double cpr : {5.0, 15.0}) {
    const TimePs period =
        oisa::timing::quantizeSpanPs(0.3 * (1.0 - cpr / 100.0));
    for (const auto& design : designs) {
      SCOPED_TRACE(design.config.name() + " @ " + std::to_string(cpr));
      expectLaneMatchesScalars(design.netlist, design.delays, period, 15, 7);
    }
  }
}

TEST(LaneSimulatorTest, ExactAgreementOnMultiplierIsa) {
  // The multiplier ISA datapath: 8x8 array multiplier whose row adders are
  // 16-bit speculative ISAs — a different port convention and much deeper
  // logic than the adder designs.
  const auto cfg = oisa::core::MultiplierConfig::make(8, 8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildMultiplierNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  const double critical = criticalDelayNs(nl, delays);
  for (const double frac : {0.5, 0.85}) {
    const TimePs period =
        std::max<TimePs>(1, oisa::timing::quantizeSpanPs(critical * frac));
    expectLaneMatchesScalars(nl, delays, period, 20, 11);
  }
}

// ---------------------------------------------------------------------------
// Slot-level evaluation: a gate is evaluated once per slot on slot-end
// values, so same-slot glitches collapse while every sampled value holds.
// ---------------------------------------------------------------------------

/// y = XOR(BUF(a), BUF(a)): with equal buffer delays both XOR inputs flip
/// in one slot, so y never changes.
Netlist reconvergentXor() {
  Netlist nl("reconv");
  const NetId a = nl.input("a");
  const NetId n1 = nl.gate1(GateKind::Buf, a);
  const NetId n2 = nl.gate1(GateKind::Buf, a);
  nl.output("y", nl.gate2(GateKind::Xor2, n1, n2));
  return nl;
}

TEST(SlotEvaluationTest, ReconvergentGlitchCollapsesInOneSlot) {
  const Netlist nl = reconvergentXor();
  const DelayAnnotation delays(nl, unitLibrary());
  for (const TimePs period : {TimePs{400}, TimePs{1000}, TimePs{2500}}) {
    expectLaneMatchesScalars(nl, delays, period, 40, 31);
  }

  // `a` rises in every lane: the lane engine commits the two buffer
  // outputs and nothing on y; the scalar engine also commits y's 0->1->0
  // glitch in the XOR's output slot.
  LaneTimedSimulator lane(nl, delays);
  lane.applyInputs(std::vector<std::uint64_t>{~std::uint64_t{0}});
  (void)lane.settlePs();
  EXPECT_EQ(lane.eventsProcessed(), 2u);
  EXPECT_EQ(lane.sampleOutputs(), std::vector<std::uint64_t>{0});

  TimedSimulator scalar(nl, delays);
  scalar.applyInputs(std::vector<std::uint8_t>{1});
  (void)scalar.settlePs();
  EXPECT_EQ(scalar.eventsProcessed(), 4u);
  EXPECT_EQ(scalar.sampleOutputs(), std::vector<std::uint8_t>{0});
}

TEST(SlotEvaluationTest, ZeroDelayBufferChainsRefillTheSlot) {
  // Buffers cost nothing, so every buffer chain commits inside the slot
  // its driver committed in: the drain must loop until the slot and the
  // dirty list are both empty.
  CellLibrary lib = CellLibrary::generic65();
  lib.cell(GateKind::Buf) = oisa::timing::CellTiming{0.0, 0.0, 1.0};

  // x = XOR(BUF(BUF(a)), b) feeds z = XOR(BUF(BUF(x)), x): z's inputs
  // change in one slot, through a zero-delay chain that starts mid-drain.
  Netlist nl("zero_delay_chain");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId c = nl.input("c");
  const NetId x = nl.gate2(
      GateKind::Xor2,
      nl.gate1(GateKind::Buf, nl.gate1(GateKind::Buf, a)), b);
  const NetId xd = nl.gate1(GateKind::Buf, nl.gate1(GateKind::Buf, x));
  const NetId z = nl.gate2(GateKind::Xor2, xd, x);
  nl.output("z", z);
  nl.output("w", nl.gate3(GateKind::Mux2, xd, c, nl.gate1(GateKind::Buf, z)));
  const DelayAnnotation delays(nl, lib);
  ASSERT_EQ(delays.delayPs(GateId{0}), 0);
  const double critical = criticalDelayNs(nl, delays);
  for (const double frac : {0.4, 1.5}) {
    expectLaneMatchesScalars(
        nl, delays,
        std::max<TimePs>(1, oisa::timing::quantizeSpanPs(critical * frac)),
        40, 17);
  }

  std::mt19937_64 rng(909);
  for (int trial = 0; trial < 4; ++trial) {
    const Netlist rnd = randomNetlist(rng, 10, 70);
    DelayAnnotation rndDelays(rnd, lib);
    rndDelays.applyVariation(rng, 0.35);
    const double crit = criticalDelayNs(rnd, rndDelays);
    for (const double frac : {0.3, 1.5}) {
      expectLaneMatchesScalars(
          rnd, rndDelays,
          std::max<TimePs>(1, oisa::timing::quantizeSpanPs(crit * frac)), 25,
          600 + static_cast<std::uint64_t>(trial));
    }
  }
}

TEST(SlotEvaluationTest, MidRunForceMatchesScalarClamp) {
  // The scalar reference models forceNet structurally: the forced net n
  // feeds a zero-delay Mux2 selecting a force-value input when a
  // force-enable input is high, and every reader of n reads the mux
  // instead. Raising the enable mid-period at the time the lane engine
  // calls forceNet must give the same sampled outputs and final nets.
  std::mt19937_64 rng(4242);
  const Netlist nl = randomNetlist(rng, 10, 80);
  DelayAnnotation delays(nl, CellLibrary::generic65());
  delays.applyVariation(rng, 0.35);

  // The forced net: a gate output read by at least two gates and not a
  // primary output.
  const auto compiled = CompiledNetlist::compile(nl);
  NetId forced{};
  bool found = false;
  for (std::uint32_t g = 0; g < nl.gateCount() && !found; ++g) {
    const NetId out = nl.gateAt(GateId{g}).out;
    const auto pos = nl.primaryOutputs();
    const bool isOutput = std::find(pos.begin(), pos.end(), out) != pos.end();
    const auto offsets = compiled->fanoutOffsets();
    if (!isOutput && offsets[out.value + 1] - offsets[out.value] >= 2) {
      forced = out;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  Netlist clamped = nl;
  const NetId enable = clamped.input("force_en");
  const NetId value = clamped.input("force_val");
  const NetId mux = clamped.gate3(GateKind::Mux2, forced, value, enable);
  const GateId muxGate{static_cast<std::uint32_t>(clamped.gateCount() - 1)};
  for (std::uint32_t g = 0; g < nl.gateCount(); ++g) {
    const auto& gate = clamped.gateAt(GateId{g});
    for (int pin = 0; pin < oisa::netlist::gateArity(gate.kind); ++pin) {
      if (gate.in[static_cast<std::size_t>(pin)] == forced) {
        clamped.replaceGateInput(GateId{g}, pin, mux);
      }
    }
  }
  DelayAnnotation clampedDelays(clamped, CellLibrary::generic65());
  for (std::uint32_t g = 0; g < nl.gateCount(); ++g) {
    clampedDelays.setDelayNs(GateId{g}, delays.delayNs(GateId{g}));
  }
  clampedDelays.setDelayNs(muxGate, 0.0);

  const std::uint64_t laneMask = rng();
  const std::uint64_t bits = rng();
  const TimePs period = std::max<TimePs>(
      2, oisa::timing::quantizeSpanPs(criticalDelayNs(nl, delays) * 0.6));
  constexpr int kCycles = 30;
  constexpr int kForceCycle = 12;

  LaneTimedSimulator lane(compiled, delays);
  std::vector<TimedSimulator> scalars;
  scalars.reserve(kLanes);
  for (std::size_t L = 0; L < kLanes; ++L) {
    scalars.emplace_back(clamped, clampedDelays);
  }
  const std::size_t inputs = nl.primaryInputs().size();
  std::vector<std::uint64_t> inWords(inputs);
  std::vector<std::uint8_t> scalarIn(inputs + 2, 0);
  std::vector<std::uint64_t> laneOut;
  std::vector<std::uint8_t> scalarOut;
  bool forcing = false;
  const auto applyScalars = [&] {
    for (std::size_t L = 0; L < kLanes; ++L) {
      for (std::size_t i = 0; i < inputs; ++i) {
        scalarIn[i] = static_cast<std::uint8_t>((inWords[i] >> L) & 1u);
      }
      scalarIn[inputs] =
          static_cast<std::uint8_t>(forcing && ((laneMask >> L) & 1u) != 0);
      scalarIn[inputs + 1] = static_cast<std::uint8_t>((bits >> L) & 1u);
      scalars[L].applyInputs(scalarIn);
    }
  };
  const auto advanceAll = [&](TimePs dt) {
    lane.advancePs(dt);
    for (auto& s : scalars) s.advancePs(dt);
  };

  for (auto& w : inWords) w = rng();
  lane.applyInputs(inWords);
  applyScalars();
  (void)lane.settlePs();
  for (auto& s : scalars) (void)s.settlePs();
  for (int t = 0; t < kCycles; ++t) {
    for (auto& w : inWords) w = rng();
    lane.applyInputs(inWords);
    applyScalars();
    if (t == kForceCycle) {
      // Mid-period: events already on the wheel for the forced net must
      // be clamped when they commit.
      advanceAll(period / 2);
      lane.forceNet(forced, laneMask, bits);
      forcing = true;
      applyScalars();
      advanceAll(period - period / 2);
    } else {
      advanceAll(period);
    }
    lane.sampleOutputsInto(laneOut);
    for (std::size_t L = 0; L < kLanes; ++L) {
      scalars[L].sampleOutputsInto(scalarOut);
      for (std::size_t o = 0; o < scalarOut.size(); ++o) {
        ASSERT_EQ((laneOut[o] >> L) & 1u,
                  static_cast<std::uint64_t>(scalarOut[o]))
            << "cycle " << t << " lane " << L << " output " << o;
      }
    }
  }

  // Settled: every net agrees; the forced net's lane value is the mux's.
  (void)lane.settlePs();
  for (std::size_t L = 0; L < kLanes; ++L) {
    (void)scalars[L].settlePs();
    for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
      const NetId ref = n == forced.value ? mux : NetId{n};
      ASSERT_EQ((lane.netWord(NetId{n}) >> L) & 1u,
                static_cast<std::uint64_t>(scalars[L].netValue(ref)))
          << "net " << n << " lane " << L;
    }
  }
}

TEST(LaneSimulatorTest, ResetReplaysIdentically) {
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  LaneTimedSimulator sim(nl, delays);
  const std::size_t inputs = nl.primaryInputs().size();

  auto runOnce = [&] {
    std::vector<std::uint64_t> trace;
    std::vector<std::uint64_t> in(inputs);
    std::vector<std::uint64_t> out;
    std::mt19937_64 rng(99);
    for (int t = 0; t < 25; ++t) {
      for (auto& w : in) w = rng();
      sim.applyInputs(in);
      sim.advancePs(240);
      sim.sampleOutputsInto(out);
      trace.insert(trace.end(), out.begin(), out.end());
    }
    return trace;
  };
  const auto first = runOnce();
  sim.reset();
  EXPECT_EQ(sim.nowPs(), 0);
  EXPECT_EQ(sim.eventsProcessed(), 0u);
  EXPECT_EQ(sim.laneTransitionsCommitted(), 0u);
  EXPECT_EQ(runOnce(), first);
}

// ---------------------------------------------------------------------------
// Lane trace collector vs the sequential reference.
// ---------------------------------------------------------------------------

void expectTracesEqual(const oisa::predict::Trace& lane,
                       const oisa::predict::Trace& scalar) {
  ASSERT_EQ(lane.size(), scalar.size());
  for (std::size_t t = 0; t < lane.size(); ++t) {
    SCOPED_TRACE("record " + std::to_string(t));
    ASSERT_EQ(lane[t].a, scalar[t].a);
    ASSERT_EQ(lane[t].b, scalar[t].b);
    ASSERT_EQ(lane[t].carryIn, scalar[t].carryIn);
    ASSERT_EQ(lane[t].diamond, scalar[t].diamond);
    ASSERT_EQ(lane[t].diamondCout, scalar[t].diamondCout);
    ASSERT_EQ(lane[t].gold, scalar[t].gold);
    ASSERT_EQ(lane[t].goldCout, scalar[t].goldCout);
    ASSERT_EQ(lane[t].silver, scalar[t].silver);
    ASSERT_EQ(lane[t].silverCout, scalar[t].silverCout);
  }
}

SynthesizedDesign testDesign(int block, int spec, int corr, int red) {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  return oisa::circuits::synthesize(
      oisa::core::makeIsa(block, spec, corr, red),
      CellLibrary::generic65(), options);
}

TEST(LaneTraceCollectorTest, MatchesScalarReferenceAcrossCprAndWorkloads) {
  const auto design = testDesign(8, 2, 1, 4);
  for (const double cpr : {5.0, 15.0}) {
    const double period = oisa::experiments::overclockedPeriodNs(0.3, cpr);
    for (const char* kind : {"uniform", "random-walk"}) {
      SCOPED_TRACE(std::string(kind) + " @ " + std::to_string(cpr));
      // Non-multiple-of-64 cycle count: uneven chunks + tail lanes.
      for (const std::uint64_t cycles : {std::uint64_t{391},
                                         std::uint64_t{64},
                                         std::uint64_t{5}}) {
        auto scalarWl = oisa::experiments::makeWorkload(kind, 32, 77);
        auto laneWl = oisa::experiments::makeWorkload(kind, 32, 77);
        const auto scalar = oisa::experiments::collectTraceScalar(
            design, period, *scalarWl, cycles);
        const auto lane =
            oisa::experiments::collectTrace(design, period, *laneWl, cycles);
        expectTracesEqual(lane, scalar);
      }
    }
  }
}

TEST(LaneTraceCollectorTest, MatchesScalarOnDeepOverclockWithWarmUp) {
  // Period far below half the critical path: chunk replay needs real
  // warm-up cycles for bit-exactness (warmUpCycles() >= 1).
  const auto design = testDesign(8, 0, 0, 4);
  const double period = design.criticalDelayNs * 0.35;
  oisa::experiments::TraceCollector collector(design, period);
  ASSERT_GE(collector.warmUpCycles(), 1);

  auto scalarWl = oisa::experiments::makeWorkload("uniform", 32, 13);
  auto laneWl = oisa::experiments::makeWorkload("uniform", 32, 13);
  const auto scalar = oisa::experiments::collectTraceScalar(
      design, period, *scalarWl, 500);
  const auto lane = collector.collect(*laneWl, 500);
  expectTracesEqual(lane, scalar);
}

TEST(LaneTraceCollectorTest, BitIdenticalAtAnyLaneCount) {
  const auto design = testDesign(16, 2, 0, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  auto collectAt = [&](std::size_t lanes) {
    oisa::experiments::TraceCollector collector(design, period, lanes);
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 5);
    return collector.collect(*wl, 300);
  };
  const auto one = collectAt(1);  // one chunk on one lane
  auto scalarWl = oisa::experiments::makeWorkload("uniform", 32, 5);
  expectTracesEqual(one, oisa::experiments::collectTraceScalar(
                             design, period, *scalarWl, 300));
  expectTracesEqual(collectAt(7), one);
  expectTracesEqual(collectAt(64), one);
}

TEST(LaneTraceCollectorTest, MatchesScalarOnWidth64Adder) {
  // Width 64: the sum fills the whole gathered word and the carry-out is
  // read from its own output word.
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const auto design = oisa::circuits::synthesize(
      oisa::core::makeIsa(16, 2, 1, 4, 64), CellLibrary::generic65(),
      options);
  for (const auto& [period, deep] :
       {std::pair{oisa::experiments::overclockedPeriodNs(0.3, 15.0), false},
        std::pair{design.criticalDelayNs * 0.35, true}}) {
    SCOPED_TRACE("period " + std::to_string(period));
    oisa::experiments::TraceCollector collector(design, period);
    if (deep) {
      ASSERT_GE(collector.warmUpCycles(), 1);
    }
    auto scalarWl = oisa::experiments::makeWorkload("uniform", 64, 41);
    auto laneWl = oisa::experiments::makeWorkload("uniform", 64, 41);
    const auto scalar = oisa::experiments::collectTraceScalar(
        design, period, *scalarWl, 700);
    const auto lane = collector.collect(*laneWl, 700);
    expectTracesEqual(lane, scalar);
    const auto timingErrors = std::count_if(
        lane.begin(), lane.end(), [](const oisa::predict::TraceRecord& r) {
          return r.silver != r.gold || r.silverCout != r.goldCout;
        });
    EXPECT_GT(timingErrors, 0);
  }
}

TEST(LaneTraceCollectorTest, DefectReplayMatchesOneChunkPerStream) {
  // The defect scan's schedule: 64 interleaved streams, chunked across the
  // engine's full width, must equal the 64-lane reference schedule (one
  // chunk per stream), healthy and with a stuck-at stem clamped in, for
  // unequal streams, empty chunks and warm-up replay.
  constexpr std::size_t kStreams = 64;
  const auto design = testDesign(8, 2, 1, 4);
  for (const auto& [period, deep] :
       {std::pair{oisa::experiments::overclockedPeriodNs(0.3, 15.0), false},
        std::pair{design.criticalDelayNs * 0.35, true}}) {
    oisa::experiments::TraceCollector wide(design, period);
    oisa::experiments::TraceCollector reference(design, period, kStreams);
    if (deep) {
      ASSERT_GE(wide.warmUpCycles(), 1);
    }
    const oisa::fault::FaultUniverse universe(wide.compiled());
    const auto defects =
        oisa::fault::selectTimedFaults(universe.collapsed(), 2);
    ASSERT_EQ(defects.size(), 2u);
    for (const std::uint64_t cycles : {1u, 63u, 65u, 777u}) {
      SCOPED_TRACE(std::to_string(cycles) + " cycles, period " +
                   std::to_string(period));
      auto wl = oisa::experiments::makeWorkload("uniform", 32, 17);
      std::vector<oisa::experiments::Stimulus> draws(kStreams + cycles);
      for (auto& d : draws) d = wl->next();
      const auto gold = wide.goldRecords(draws, kStreams);
      ASSERT_EQ(gold.size(), cycles);
      EXPECT_EQ(gold.front().a, draws[kStreams].a);
      const auto replayBoth = [&](const oisa::fault::Fault* defect) {
        auto got = gold;
        auto want = gold;
        wide.replay(draws, kStreams, got, defect);
        reference.replay(draws, kStreams, want, defect);
        expectTracesEqual(got, want);
        return got;
      };
      const auto healthy = replayBoth(nullptr);
      bool anyDefectShows = false;
      for (const auto& f : defects) {
        const auto faulty = replayBoth(&f);
        for (std::size_t m = 0; m < faulty.size(); ++m) {
          anyDefectShows = anyDefectShows ||
                           faulty[m].silver != healthy[m].silver ||
                           faulty[m].silverCout != healthy[m].silverCout;
        }
      }
      if (cycles >= 65) {
        EXPECT_TRUE(anyDefectShows);
      }
      // Forces never leak into the next run on the same sampler.
      expectTracesEqual(replayBoth(nullptr), healthy);
    }
  }
}

TEST(LaneTraceCollectorTest, RejectsNonAdderPortsAndNonDividingStreams) {
  const auto design = testDesign(8, 2, 1, 4);
  oisa::experiments::TraceCollector seven(
      design, oisa::experiments::overclockedPeriodNs(0.3, 15.0), 7);
  std::vector<oisa::experiments::Stimulus> draws(64 + 10);
  auto trace = seven.goldRecords(draws, 64);
  EXPECT_THROW(seven.replay(draws, 64, trace), std::invalid_argument);
  EXPECT_THROW(seven.replay(draws, 0, trace), std::invalid_argument);
  EXPECT_THROW((void)seven.goldRecords(draws, 0), std::invalid_argument);
  auto shortTrace = seven.goldRecords(draws, 1);
  shortTrace.pop_back();
  EXPECT_THROW(seven.replay(draws, 1, shortTrace), std::invalid_argument);

  // A multiplier netlist behind an adder config breaks the port
  // convention the stimulus packer and the output gather assume.
  auto multiplier = design;
  multiplier.netlist = oisa::circuits::buildMultiplierNetlist(
      oisa::core::MultiplierConfig::make(8, 8, 2, 1, 4));
  multiplier.delays =
      DelayAnnotation(multiplier.netlist, CellLibrary::generic65());
  EXPECT_THROW(oisa::experiments::TraceCollector(multiplier, 1.0),
               std::invalid_argument);
}

TEST(LaneTraceCollectorTest, CollectorReuseIsDeterministic) {
  // One collector instance across repeated collects (the runner's usage):
  // reset() must restore pristine state, and each collect credits its own
  // events to sim.events_committed.
  const auto design = testDesign(8, 2, 1, 4);
  oisa::experiments::TraceCollector collector(
      design, oisa::experiments::overclockedPeriodNs(0.3, 15.0));
  oisa::obs::Counter& events = oisa::obs::counter("sim.events_committed");
  const std::uint64_t events0 = events.value();
  auto first = [&] {
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 21);
    return collector.collect(*wl, 200);
  }();
  const std::uint64_t events1 = events.value();
  auto second = [&] {
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 21);
    return collector.collect(*wl, 200);
  }();
  expectTracesEqual(second, first);
  EXPECT_GT(events1 - events0, 0u);
  EXPECT_EQ(events.value() - events1, events1 - events0);
}

TEST(LaneTraceCollectorTest, PackedEmissionMatchesPackTrace) {
  const auto design = testDesign(8, 2, 1, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  oisa::experiments::TraceCollector collector(design, period);
  const oisa::predict::FeatureExtractor extractor(32);
  auto wl = oisa::experiments::makeWorkload("uniform", 32, 3);
  const auto collected = collector.collectPacked(*wl, 130, extractor);
  const auto reference = extractor.packTrace(collected.trace);
  EXPECT_EQ(collected.packed.rowCount, reference.rowCount);
  EXPECT_EQ(collected.packed.shared, reference.shared);
  EXPECT_EQ(collected.packed.goldPrev, reference.goldPrev);
  EXPECT_EQ(collected.packed.goldCur, reference.goldCur);
  EXPECT_EQ(collected.packed.labels, reference.labels);
}

// ---------------------------------------------------------------------------
// Shared compiled substrate.
// ---------------------------------------------------------------------------

TEST(CompiledNetlistTest, OneCompileServesAllEngines) {
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  const auto compiled = CompiledNetlist::compile(nl);
  ASSERT_TRUE(compiled->acyclic());

  // Functional engine from the shared compile == private compile.
  const oisa::netlist::BatchEvaluator shared(compiled);
  const oisa::netlist::BatchEvaluator privat(nl);
  std::mt19937_64 rng(8);
  std::vector<std::uint64_t> in(nl.primaryInputs().size());
  for (auto& w : in) w = rng();
  EXPECT_EQ(shared.evaluateOutputs(in), privat.evaluateOutputs(in));

  // Timed engines from the shared compile agree with Netlist-constructed
  // ones (spot check one overclocked cycle).
  TimedSimulator fromCompile(compiled, delays);
  TimedSimulator fromNetlist(nl, delays);
  std::vector<std::uint8_t> bits(nl.primaryInputs().size());
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  fromCompile.applyInputs(bits);
  fromNetlist.applyInputs(bits);
  fromCompile.advancePs(255);
  fromNetlist.advancePs(255);
  EXPECT_EQ(fromCompile.sampleOutputs(), fromNetlist.sampleOutputs());
  EXPECT_EQ(fromCompile.eventsProcessed(), fromNetlist.eventsProcessed());
}

// ---------------------------------------------------------------------------
// Non-settling / cyclic netlist guard.
// ---------------------------------------------------------------------------

/// NAND-gated ring oscillator: en=0 holds the loop stable, en=1 makes it
/// oscillate forever. Built with the rewiring primitive (the builder API
/// alone cannot create cycles).
Netlist ringOscillator() {
  Netlist nl("osc");
  const NetId en = nl.input("en");
  const NetId n1 = nl.gate2(GateKind::Nand2, en, en);  // pin 1 rewired below
  const NetId n2 = nl.gate1(GateKind::Buf, n1);
  const NetId n3 = nl.gate1(GateKind::Buf, n2);
  nl.output("y", n3);
  nl.replaceGateInput(GateId{0}, 1, n3);  // close the loop
  return nl;
}

TEST(EventBudgetTest, CyclicNetlistIsDetectedNotLoopedOn) {
  const Netlist nl = ringOscillator();
  EXPECT_THROW(nl.validate(), std::runtime_error);
  const auto compiled = CompiledNetlist::compile(nl);
  EXPECT_FALSE(compiled->acyclic());
  // Functional evaluation requires an order and must refuse.
  EXPECT_THROW(oisa::netlist::BatchEvaluator{compiled}, std::runtime_error);

  const DelayAnnotation delays(nl, unitLibrary());
  TimedSimulator sim(compiled, delays);
  sim.setEventBudget(20000);
  // Stable configuration settles fine — the guard must not false-positive
  // — and converges to the *logic-consistent* quiescent state, not the
  // raw all-zero power-up values: with en=0, NAND(0, x) = 1 must
  // propagate around the loop to the output.
  sim.applyInputs(std::vector<std::uint8_t>{0});
  EXPECT_NO_THROW((void)sim.settlePs());
  EXPECT_EQ(sim.sampleOutputs(), std::vector<std::uint8_t>{1});
  // Enabled oscillator: settle must throw the diagnostic, not hang.
  sim.applyInputs(std::vector<std::uint8_t>{1});
  EXPECT_THROW((void)sim.settlePs(), std::runtime_error);
  // Bounded advance is guarded too, and reset() recovers the simulator.
  sim.reset();
  sim.applyInputs(std::vector<std::uint8_t>{1});
  EXPECT_THROW(sim.advancePs(TimePs{1} << 40), std::runtime_error);
  sim.reset();
  sim.applyInputs(std::vector<std::uint8_t>{0});
  EXPECT_NO_THROW((void)sim.settlePs());
}

TEST(EventBudgetTest, LaneEngineGuardsCyclicNetlistsToo) {
  const Netlist nl = ringOscillator();
  const DelayAnnotation delays(nl, unitLibrary());
  LaneTimedSimulator sim(nl, delays);
  sim.setEventBudget(20000);
  sim.applyInputs(std::vector<std::uint64_t>{0});
  EXPECT_NO_THROW((void)sim.settlePs());
  EXPECT_EQ(sim.sampleOutputs(), std::vector<std::uint64_t>{~std::uint64_t{0}});
  // Oscillate in a single lane: the shared-word engine must still detect.
  sim.applyInputs(std::vector<std::uint64_t>{std::uint64_t{1} << 17});
  EXPECT_THROW((void)sim.settlePs(), std::runtime_error);
  sim.reset();
  sim.applyInputs(std::vector<std::uint64_t>{0});
  EXPECT_NO_THROW((void)sim.settlePs());
}

TEST(EventBudgetTest, BudgetIsPerCallNotCumulative) {
  // A legitimate long run must never trip the guard: total committed
  // events exceed the per-call budget many times over, but each advance
  // stays far below it.
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  TimedSimulator sim(nl, delays);
  sim.setEventBudget(5000);  // ~10 cycles' worth of events
  std::mt19937_64 rng(2);
  for (int t = 0; t < 200; ++t) {
    sim.applyInputs(oisa::circuits::packOperands(rng(), rng(), false, 32));
    EXPECT_NO_THROW(sim.advancePs(255));
  }
  EXPECT_GT(sim.eventsProcessed(), 5000u);
  // The natural "unlimited" spelling must not wrap the per-call cap into
  // an instant spurious throw (saturating arithmetic).
  sim.setEventBudget(~std::uint64_t{0});
  sim.applyInputs(oisa::circuits::packOperands(rng(), rng(), false, 32));
  EXPECT_NO_THROW((void)sim.settlePs());
}

}  // namespace
