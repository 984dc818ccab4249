// Word-parallel batch evaluation: lane-for-lane equivalence against the
// scalar Evaluator on every adder topology and ISA design, the 64x64 bit
// transpose, the pattern-major packing edge cases, and the gate-level
// structural scan that holds every synthesized netlist to the behavioral
// IsaAdder on every sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <vector>

#include "circuits/adder_topologies.h"
#include "circuits/isa_netlist.h"
#include "circuits/synthesis.h"
#include "core/analysis.h"
#include "core/isa_adder.h"
#include "experiments/workload.h"
#include "netlist/batch_evaluator.h"
#include "netlist/bitops.h"
#include "netlist/evaluator.h"
#include "timing/cell_library.h"

namespace {

using oisa::circuits::AdderTopology;
using oisa::circuits::allTopologies;
using oisa::circuits::buildAdder;
using oisa::circuits::topologyName;
using oisa::netlist::BatchEvaluator;
using oisa::netlist::evalGateWord;
using oisa::netlist::Evaluator;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::netlist::transpose64;

Netlist makeAdderNetlist(int width, AdderTopology topology) {
  Netlist nl("adder");
  std::vector<NetId> a;
  std::vector<NetId> b;
  for (int i = 0; i < width; ++i) a.push_back(nl.input("a" + std::to_string(i)));
  for (int i = 0; i < width; ++i) b.push_back(nl.input("b" + std::to_string(i)));
  const NetId cin = nl.input("cin");
  const auto ports = buildAdder(nl, a, b, cin, topology);
  for (int i = 0; i < width; ++i) {
    nl.output("s" + std::to_string(i), ports.sum[static_cast<std::size_t>(i)]);
  }
  nl.output("cout", ports.carryOut);
  return nl;
}

TEST(TransposeTest, RoundTripsRandomMatrices) {
  std::mt19937_64 rng(21);
  for (int rep = 0; rep < 10; ++rep) {
    std::array<std::uint64_t, 64> m{};
    for (auto& row : m) row = rng();
    const auto original = m;
    transpose64(m);
    // Spot-check the definition: bit j of transposed row i = bit i of
    // original row j.
    for (int i = 0; i < 64; i += 7) {
      for (int j = 0; j < 64; j += 5) {
        EXPECT_EQ((m[static_cast<std::size_t>(i)] >> j) & 1u,
                  (original[static_cast<std::size_t>(j)] >> i) & 1u)
            << "(" << i << "," << j << ")";
      }
    }
    transpose64(m);
    EXPECT_EQ(m, original);
  }
}

TEST(BatchEvaluatorTest, GateWordMatchesScalarGateOnAllKinds) {
  // Lane 0 = (0,0,0), lane 1 = (1,0,0), ... lane 7 = (1,1,1): every input
  // combination of every kind, all in one word per operand.
  const std::uint64_t a = 0xaa;  // bit L = L&1
  const std::uint64_t b = 0xcc;  // bit L = (L>>1)&1
  const std::uint64_t c = 0xf0;  // bit L = (L>>2)&1
  for (const GateKind kind : oisa::netlist::allGateKinds()) {
    const std::uint64_t word = evalGateWord(kind, a, b, c);
    for (int lane = 0; lane < 8; ++lane) {
      const bool expected =
          evalGate(kind, (lane & 1) != 0, (lane & 2) != 0, (lane & 4) != 0);
      EXPECT_EQ((word >> lane) & 1u, expected ? 1u : 0u)
          << gateName(kind) << " lane " << lane;
    }
  }
}

TEST(BatchEvaluatorTest, MatchesScalarOnEveryAdderTopology) {
  std::mt19937_64 rng(33);
  for (const AdderTopology topology : allTopologies()) {
    const Netlist nl = makeAdderNetlist(16, topology);
    const Evaluator scalar(nl);
    const BatchEvaluator batch(nl);
    const std::size_t n = nl.primaryInputs().size();

    // 64 random vectors, lane-major.
    std::vector<std::vector<std::uint8_t>> vectors(64,
                                                   std::vector<std::uint8_t>(n));
    std::vector<std::uint64_t> inWords(n, 0);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      for (std::size_t i = 0; i < n; ++i) {
        vectors[lane][i] = static_cast<std::uint8_t>(rng() & 1u);
        if (vectors[lane][i]) inWords[i] |= std::uint64_t{1} << lane;
      }
    }
    const auto outWords = batch.evaluateOutputs(inWords);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      const auto scalarOut = scalar.evaluateOutputs(vectors[lane]);
      for (std::size_t o = 0; o < scalarOut.size(); ++o) {
        EXPECT_EQ((outWords[o] >> lane) & 1u, scalarOut[o])
            << topologyName(topology) << " lane " << lane << " output " << o;
      }
    }
  }
}

TEST(BatchEvaluatorTest, MatchesScalarOnIsaDesigns) {
  std::mt19937_64 rng(35);
  for (const auto& cfg : oisa::core::paperDesigns()) {
    const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
    const Evaluator scalar(nl);
    const BatchEvaluator batch(nl);
    const std::size_t n = nl.primaryInputs().size();
    std::vector<std::uint64_t> inWords(n);
    for (auto& w : inWords) w = rng();
    const auto batchValues = batch.evaluate(inWords);
    ASSERT_EQ(batchValues.size(), nl.netCount());
    std::vector<std::uint8_t> in(n);
    for (const std::size_t lane : {std::size_t{0}, std::size_t{17},
                                   std::size_t{63}}) {
      for (std::size_t i = 0; i < n; ++i) {
        in[i] = static_cast<std::uint8_t>((inWords[i] >> lane) & 1u);
      }
      const auto scalarValues = scalar.evaluate(in);
      for (std::size_t net = 0; net < scalarValues.size(); ++net) {
        ASSERT_EQ((batchValues[net] >> lane) & 1u, scalarValues[net])
            << cfg.name() << " net " << net << " lane " << lane;
      }
    }
  }
}

TEST(BatchEvaluatorTest, EvaluateWordsMatchesScalarEvaluateWord) {
  // 16-bit adder: 33 inputs, 17 outputs — within the <= 64-port limit.
  const Netlist nl = makeAdderNetlist(16, AdderTopology::KoggeStone);
  const Evaluator scalar(nl);
  const BatchEvaluator batch(nl);
  std::mt19937_64 rng(37);
  // Full batch of 64 and partial batches covering the edge sizes.
  for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                  std::size_t{63}, std::size_t{64}}) {
    std::vector<std::uint64_t> patterns(count);
    const std::uint64_t portMask =
        (std::uint64_t{1} << nl.primaryInputs().size()) - 1;
    for (auto& p : patterns) p = rng() & portMask;
    const auto results = batch.evaluateWords(patterns);
    ASSERT_EQ(results.size(), count);
    for (std::size_t p = 0; p < count; ++p) {
      EXPECT_EQ(results[p], scalar.evaluateWord(patterns[p]))
          << "batch size " << count << " pattern " << p;
    }
  }
}

TEST(BatchEvaluatorTest, RejectsBadShapes) {
  const Netlist nl = makeAdderNetlist(8, AdderTopology::RippleCarry);
  const BatchEvaluator batch(nl);
  std::vector<std::uint64_t> wrong(nl.primaryInputs().size() + 1, 0);
  EXPECT_THROW((void)batch.evaluate(wrong), std::invalid_argument);
  EXPECT_THROW((void)batch.evaluateWords({}), std::invalid_argument);
  const std::vector<std::uint64_t> tooMany(65, 0);
  EXPECT_THROW((void)batch.evaluateWords(tooMany), std::invalid_argument);

  // > 64 primary inputs: lane-major still works, pattern-major must throw.
  const Netlist wide = makeAdderNetlist(32, AdderTopology::Sklansky);
  const BatchEvaluator wideBatch(wide);
  const std::vector<std::uint64_t> one(1, 0);
  EXPECT_THROW((void)wideBatch.evaluateWords(one), std::invalid_argument);
  const std::vector<std::uint64_t> zeros(wide.primaryInputs().size(), 0);
  EXPECT_NO_THROW((void)wideBatch.evaluateOutputs(zeros));
}

/// Gate-level structural-error scan with no timing involved: drives the
/// synthesized netlist with the uniform workload, 64 stimuli per
/// BatchEvaluator sweep, and requires its output to equal the behavioral
/// IsaAdder::add (y_gold) on every sample. Returns P(E_struct != 0)
/// measured at the gate level (netlist output vs the exact sum).
double gateLevelStructErrorRate(
    const oisa::circuits::SynthesizedDesign& design, std::uint64_t samples) {
  const int width = design.config.width;
  const oisa::core::IsaAdder behavioral(design.config);
  const BatchEvaluator eval(design.netlist);
  const auto workload = oisa::experiments::makeWorkload("uniform", width, 42);
  const auto pos = design.netlist.primaryOutputs();
  std::vector<std::uint64_t> inputWords(design.netlist.primaryInputs().size());
  std::vector<std::uint64_t> values;
  std::array<oisa::experiments::Stimulus, 64> stims{};
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
  for (std::uint64_t done = 0; done < samples; done += stims.size()) {
    const auto lanes = static_cast<std::size_t>(
        std::min<std::uint64_t>(stims.size(), samples - done));
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      stims[lane] = workload->next();
    }
    oisa::experiments::packStimulusBlock(std::span(stims.data(), lanes),
                                         width, inputWords);
    eval.evaluateInto(inputWords, values);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      // Outputs s0..sN-1, cout (circuits::buildIsaNetlist): bit i of the
      // gathered word is output i, so cout lands at bit `width`.
      std::uint64_t gate = 0;
      for (std::size_t i = 0; i < pos.size(); ++i) {
        gate |= ((values[pos[i].value] >> lane) & 1u) << i;
      }
      const auto& s = stims[lane];
      if (gate != behavioral.add(s.a, s.b, s.carryIn).value(width)) {
        ++mismatches;
      }
      if (gate != behavioral.exactAdd(s.a, s.b, s.carryIn).value(width)) {
        ++errors;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << design.config.name();
  return static_cast<double>(errors) / static_cast<double>(samples);
}

TEST(FunctionalErrorScanTest, MatchesBehavioralModelAndClosedForms) {
  const auto lib = oisa::timing::CellLibrary::generic65();
  std::vector<oisa::circuits::SynthesizedDesign> designs;
  designs.push_back(oisa::circuits::synthesize(oisa::core::makeIsa(8, 0, 0, 0), lib));
  designs.push_back(oisa::circuits::synthesize(oisa::core::makeIsa(8, 2, 1, 4), lib));
  designs.push_back(oisa::circuits::synthesize(oisa::core::makeExact(32), lib));

  std::vector<double> rates;
  for (const auto& design : designs) {
    rates.push_back(gateLevelStructErrorRate(design, 20000));
  }
  // The exact design never errs; the speculative ones track the closed form.
  EXPECT_EQ(rates[2], 0.0);
  const double predicted =
      oisa::core::structuralErrorRateApprox(designs[0].config);
  EXPECT_NEAR(rates[0], predicted, 0.1 * predicted + 0.01);
  EXPECT_GT(rates[0], rates[1]);
}

}  // namespace
