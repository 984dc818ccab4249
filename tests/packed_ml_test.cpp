// Packed ML substrate tests: the column-major packed dataset view, the
// popcount CART trainer's node-for-node equality with the retained
// row-scan reference trainer, the ablation kinds as forest points (a
// 1-tree forest is DecisionTree::fit, a depth-0 one the majority vote),
// the packed trace feature matrix, and serialization of
// packed-trained forests — on random data and on a real collected trace of
// a synthesized paper design across all 33 output bits.
#include <gtest/gtest.h>

#include <climits>
#include <memory>
#include <random>
#include <vector>

#include "circuits/synthesis.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "predict/bit_predictor.h"
#include "predict/features.h"

#include "differential_harness.h"

namespace {

using oisa::ml::Dataset;
using oisa::ml::DecisionTree;
using oisa::ml::ForestParams;
using oisa::ml::PackedView;
using oisa::ml::RandomForest;
using oisa::ml::TreeParams;
using oisa::predict::BitLevelPredictor;
using oisa::predict::FeatureExtractor;
using oisa::predict::Trace;
using oisa::predict::TraceRecord;

using oisa::testing::randomDataset;

void expectSameNodes(const DecisionTree& a, const DecisionTree& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].feature, b.nodes()[i].feature) << "node " << i;
    EXPECT_EQ(a.nodes()[i].left, b.nodes()[i].left) << "node " << i;
    EXPECT_EQ(a.nodes()[i].right, b.nodes()[i].right) << "node " << i;
    EXPECT_EQ(a.nodes()[i].probability, b.nodes()[i].probability)
        << "node " << i;
  }
}

TEST(PackedViewTest, MatchesByteMatrixBitForBit) {
  const Dataset data = randomDataset(201, 13, 5);  // odd row count: tail word
  const PackedView& view = data.packed();
  ASSERT_EQ(view.rowCount, data.rowCount());
  ASSERT_EQ(view.featureCount(), data.featureCount());
  ASSERT_EQ(view.wordCount, (data.rowCount() + 63) / 64);
  for (std::size_t r = 0; r < data.rowCount(); ++r) {
    for (std::size_t f = 0; f < data.featureCount(); ++f) {
      const bool packed =
          ((view.columns[f][r / 64] >> (r % 64)) & 1u) != 0;
      EXPECT_EQ(packed, data.feature(r, f) != 0) << r << "," << f;
    }
    const bool label = ((view.labels[r / 64] >> (r % 64)) & 1u) != 0;
    EXPECT_EQ(label, data.label(r)) << r;
  }
  // Tail bits past rowCount stay zero (trainers rely on it).
  const std::size_t tail = data.rowCount() % 64;
  for (std::size_t f = 0; f < view.featureCount(); ++f) {
    EXPECT_EQ(view.columns[f][view.wordCount - 1] >> tail, 0u);
  }
  EXPECT_EQ(view.positiveCount(), data.positiveCount());
}

TEST(PackedViewTest, CopiesRebuildTheirOwnCache) {
  // The cached view points into the owning Dataset's storage: a copy must
  // not inherit those pointers (it rebuilds over its own rows), and the
  // copy stays correct after the source is mutated or destroyed.
  auto source = std::make_unique<Dataset>(randomDataset(70, 5, 99));
  (void)source->packed();  // populate the source's cache first
  Dataset copy = *source;
  Dataset assigned(1);
  assigned = *source;
  source->addRow(std::vector<std::uint8_t>(5, 1), true);
  source.reset();
  for (Dataset* d : {&copy, &assigned}) {
    const PackedView& view = d->packed();
    ASSERT_EQ(view.rowCount, 70u);
    for (std::size_t r = 0; r < d->rowCount(); ++r) {
      for (std::size_t f = 0; f < d->featureCount(); ++f) {
        ASSERT_EQ(((view.columns[f][r / 64] >> (r % 64)) & 1u) != 0,
                  d->feature(r, f) != 0);
      }
    }
  }
}

TEST(PackedViewTest, CacheInvalidatedByAddRow) {
  Dataset data(2);
  data.addRow(std::vector<std::uint8_t>{1, 0}, true);
  EXPECT_EQ(data.packed().rowCount, 1u);
  data.addRow(std::vector<std::uint8_t>{0, 1}, false);
  EXPECT_EQ(data.packed().rowCount, 2u);
  EXPECT_EQ(data.packed().positiveCount(), 1u);
}

TEST(PackedTrainerTest, MatchesReferenceAcrossRandomDatasets) {
  // Property: identical node arrays for the same rows, params and rng
  // seed, across dataset shapes (row counts around the 64-row word) and
  // growth-control corners. Candidates are scored four at a time, so the
  // subsampling sizes (and fps = 0 over 3 or 17 features) leave partial
  // blocks of every size.
  const TreeParams paramSets[] = {
      TreeParams{},                  // defaults
      TreeParams{0, 2, 1, 0},        // depth 0: the root is the tree
      TreeParams{3, 4, 1, 0},        // shallow
      TreeParams{12, 2, 3, 4},       // feature subsampling + leaf minimum
      TreeParams{20, 8, 1, 5},       // deep, subsampled
      TreeParams{12, 2, 1, 1},       // one candidate per split
      TreeParams{12, 2, 1, 2},
      TreeParams{12, 2, 1, 3},
      TreeParams{INT_MAX, 2, 1, 0},  // unbounded: depth slots grow on demand
  };
  std::uint64_t seed = 1000;
  for (const std::size_t rows : {1u, 5u, 63u, 64u, 65u, 300u}) {
    for (const std::size_t features : {3u, 17u}) {
      const Dataset data = randomDataset(rows, features, ++seed);
      for (const TreeParams& params : paramSets) {
        DecisionTree packed, reference;
        packed.fit(data, params, seed);
        reference.fitReference(data, params, seed);
        expectSameNodes(packed, reference);
      }
    }
  }
}

TEST(PackedTrainerTest, MatchesReferenceOnBootstrapMultisets) {
  // Duplicate row indices (the bootstrap case) carry multiplicity, which
  // the packed trainer encodes as bit-planes — counts must match the
  // reference multiset semantics exactly.
  const Dataset data = randomDataset(150, 9, 77);
  std::mt19937_64 sampler(3);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint32_t> rows(200);
    std::uniform_int_distribution<std::uint32_t> pick(0, 149);
    for (auto& r : rows) r = pick(sampler);
    TreeParams params;
    params.featuresPerSplit = 3;
    DecisionTree packed, reference;
    std::mt19937_64 rngA(42 + trial), rngB(42 + trial);
    packed.fit(data.packed(), rows, params, rngA);
    reference.fitReference(data, rows, params, rngB);
    expectSameNodes(packed, reference);
  }
}

TEST(PackedTrainerTest, RejectsBadRows) {
  const Dataset data = randomDataset(10, 4, 9);
  DecisionTree tree;
  std::mt19937_64 rng(1);
  const std::vector<std::uint32_t> empty;
  EXPECT_THROW(tree.fit(data.packed(), empty, TreeParams{}, rng),
               std::invalid_argument);
  const std::vector<std::uint32_t> outOfRange{0, 10};
  EXPECT_THROW(tree.fit(data.packed(), outOfRange, TreeParams{}, rng),
               std::out_of_range);
}

/// Fits `rows` of `data` with both trainers from the same rng seed and
/// asserts node-for-node equality.
void expectTrainersAgree(const Dataset& data,
                         const std::vector<std::uint32_t>& rows,
                         const TreeParams& params, std::uint64_t seed) {
  DecisionTree packed, reference;
  std::mt19937_64 rngA(seed), rngB(seed);
  packed.fit(data.packed(), rows, params, rngA);
  reference.fitReference(data, rows, params, rngB);
  expectSameNodes(packed, reference);
  EXPECT_EQ(rngA(), rngB()) << "trainers consumed the rng differently";
}

TEST(PackedTrainerTest, MatchesReferenceAtHighMultiplicity) {
  // Repeat counts past 255 spill into a second byte of bit-planes.
  Dataset pair(3);
  pair.addRow(std::vector<std::uint8_t>{1, 0, 1}, true);
  pair.addRow(std::vector<std::uint8_t>{0, 1, 1}, false);
  std::mt19937_64 sampler(11);
  std::vector<std::uint32_t> draws(1000);
  for (auto& r : draws) r = static_cast<std::uint32_t>(sampler() & 1);
  expectTrainersAgree(pair, draws, TreeParams{}, 1);
  DecisionTree tree;
  std::mt19937_64 rng(1);
  tree.fit(pair.packed(), draws, TreeParams{}, rng);
  EXPECT_EQ(tree.nodeCount(), 3u);  // one split separates the two rows

  // Skewed counts up to 599 (ten planes) across two words of rows.
  const Dataset data = randomDataset(70, 6, 8);
  std::vector<std::uint32_t> rows;
  for (std::uint32_t r = 0; r < 70; ++r) {
    rows.insert(rows.end(), (r * 37) % 600, r);
  }
  for (const std::size_t fps : {0u, 2u}) {
    TreeParams params;
    params.featuresPerSplit = fps;
    expectTrainersAgree(data, rows, params, 5 + fps);
  }
}

TEST(PackedForestTest, FitMatchesReferenceTreeForTree) {
  const Dataset data = randomDataset(400, 12, 21);
  ForestParams params;
  params.treeCount = 7;
  RandomForest packed, reference;
  packed.fit(data, params, 33);
  reference.fitReference(data, params, 33);
  ASSERT_EQ(packed.trees().size(), reference.trees().size());
  for (std::size_t t = 0; t < packed.trees().size(); ++t) {
    expectSameNodes(packed.trees()[t], reference.trees()[t]);
  }
}

TEST(PackedForestTest, ConstantLabelShortcutMatchesReference) {
  for (const bool label : {false, true}) {
    Dataset data(4);
    std::mt19937_64 rng(5);
    for (int i = 0; i < 100; ++i) {
      std::vector<std::uint8_t> row(4);
      for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
      data.addRow(row, label);
    }
    RandomForest packed, reference;
    packed.fit(data, ForestParams{}, 2);
    reference.fitReference(data, ForestParams{}, 2);
    ASSERT_EQ(packed.trees().size(), 1u);
    ASSERT_EQ(reference.trees().size(), 1u);
    expectSameNodes(packed.trees()[0], reference.trees()[0]);
    EXPECT_EQ(packed.trees()[0].nodes()[0].probability, label ? 1.0f : 0.0f);

    DecisionTree packedLeaf, referenceLeaf;
    packedLeaf.fit(data.packed(), TreeParams{0, 2, 1, 0}, 2);
    referenceLeaf.fitReference(data, TreeParams{0, 2, 1, 0}, 2);
    expectSameNodes(packedLeaf, referenceLeaf);
  }
}

TEST(PackedForestTest, OneTreeForestIsTheDecisionTree) {
  // The predictor's decision-tree kind is a 1-tree forest without
  // bootstrap scoring every feature: it must grow DecisionTree::fit's
  // nodes at the same seed, on random and on constant-label data.
  const ForestParams oneTree = oisa::testing::decisionTreeParams();
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const Dataset data = randomDataset(300 + seed, 9, seed);
    for (const int depth : {12, 3}) {
      ForestParams params = oneTree;
      params.tree.maxDepth = depth;
      TreeParams treeParams;
      treeParams.maxDepth = depth;
      RandomForest forest;
      forest.fit(data.packed(), params, seed);
      DecisionTree tree;
      tree.fit(data.packed(), treeParams, seed);
      ASSERT_EQ(forest.trees().size(), 1u);
      expectSameNodes(forest.trees()[0], tree);
      EXPECT_GT(tree.nodeCount(), 1u);
    }
  }
  for (const bool label : {false, true}) {
    Dataset data(5);
    std::mt19937_64 rng(9);
    for (int i = 0; i < 90; ++i) {
      std::vector<std::uint8_t> row(5);
      for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
      data.addRow(row, label);
    }
    RandomForest forest;
    forest.fit(data.packed(), oneTree, 4);
    DecisionTree tree;
    tree.fit(data.packed(), TreeParams{}, 4);
    ASSERT_EQ(forest.trees().size(), 1u);
    expectSameNodes(forest.trees()[0], tree);
  }
}

TEST(PackedForestTest, DepthZeroForestIsTheMajorityVote) {
  // The majority baseline is the 1-tree forest cut at depth 0: one leaf
  // of probability pos/n, whose >= 0.5 decision is the majority class.
  for (const std::size_t rows : {1u, 2u, 99u, 100u, 257u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Dataset data = randomDataset(rows, 4, seed * 7 + rows);
      RandomForest forest;
      forest.fit(data.packed(), oisa::testing::majorityParams(), seed);
      ASSERT_EQ(forest.trees().size(), 1u);
      ASSERT_EQ(forest.trees()[0].nodeCount(), 1u);
      const std::size_t pos = data.positiveCount();
      const double share =
          static_cast<double>(pos) / static_cast<double>(rows);
      EXPECT_EQ(forest.trees()[0].nodes()[0].probability,
                static_cast<float>(share));
      EXPECT_EQ(forest.predict(data.row(0)), 2 * pos >= rows)
          << rows << " rows, " << pos << " positive";
    }
  }
}

// ---------------------------------------------------------------------
// Packed trace features and the full predictor bank on a real collected
// trace of a synthesized paper design.
// ---------------------------------------------------------------------

Trace collectPaperTrace(std::uint64_t cycles, std::uint64_t seed) {
  static const oisa::circuits::SynthesizedDesign design =
      oisa::circuits::synthesize(oisa::core::makeIsa(8, 2, 1, 4),
                                 oisa::timing::CellLibrary::generic65(),
                                 oisa::circuits::SynthesisOptions{});
  // 15% CPR: aggressive enough that several output bits see real timing
  // errors, so the per-bit forests grow non-trivial trees.
  const double period = design.criticalDelayNs * 0.85;
  auto workload =
      oisa::experiments::makeWorkload("uniform", design.config.width, seed);
  return oisa::experiments::collectTrace(design, period, *workload, cycles);
}

TEST(PackedTraceTest, ColumnsMatchScalarExtraction) {
  const Trace trace = collectPaperTrace(200, 11);
  const FeatureExtractor fx(32);
  const oisa::predict::PackedTraceFeatures packed = fx.packTrace(trace);
  ASSERT_EQ(packed.rowCount, trace.size() - 1);
  std::vector<std::uint8_t> row(fx.featureCount());
  for (int bit = 0; bit <= 32; ++bit) {
    const PackedView view = fx.bitView(packed, bit);
    ASSERT_EQ(view.featureCount(), fx.featureCount());
    for (std::size_t r = 0; r < packed.rowCount; ++r) {
      fx.extract(trace[r], trace[r + 1], bit, row);
      for (std::size_t f = 0; f < view.featureCount(); ++f) {
        const bool packedBit =
            ((view.columns[f][r / 64] >> (r % 64)) & 1u) != 0;
        ASSERT_EQ(packedBit, row[f] != 0)
            << "bit " << bit << " row " << r << " feature " << f;
      }
      const bool label = ((view.labels[r / 64] >> (r % 64)) & 1u) != 0;
      ASSERT_EQ(label,
                FeatureExtractor::timingErroneous(trace[r + 1], bit, 32));
    }
  }
}

TEST(PackedTraceTest, AblatedExtractorDropsGoldColumns) {
  const Trace trace = collectPaperTrace(150, 13);
  const FeatureExtractor fx(32, /*includeOutputBits=*/false);
  const oisa::predict::PackedTraceFeatures packed = fx.packTrace(trace);
  EXPECT_TRUE(packed.goldPrev.empty());
  EXPECT_TRUE(packed.goldCur.empty());
  const PackedView view = fx.bitView(packed, 0);
  EXPECT_EQ(view.featureCount(), fx.sharedFeatureCount());
}

TEST(PackedPredictorTest, AllBitsAgreeWithScalarOnCollectedTrace) {
  const Trace train = collectPaperTrace(600, 17);
  const Trace test = collectPaperTrace(400, 19);
  oisa::predict::PredictorParams params;
  params.forest.treeCount = 5;
  BitLevelPredictor predictor(32, params);
  predictor.fit(train);

  // evaluate()'s batched sweep must equal the scalar per-cycle pipeline:
  // recompute ABPER/AVPE through the public predictFlips path.
  const auto eval = predictor.evaluate(test);
  std::vector<std::uint64_t> wrong(33, 0);
  double avpeSum = 0.0;
  std::uint64_t skipped = 0;
  for (std::size_t t = 1; t < test.size(); ++t) {
    const auto flips = predictor.predictFlips(test[t - 1], test[t]);
    for (int bit = 0; bit <= 32; ++bit) {
      const bool predicted = bit == 32
                                 ? flips.coutFlip
                                 : ((flips.sumFlips >> bit) & 1u) != 0;
      if (predicted !=
          FeatureExtractor::timingErroneous(test[t], bit, 32)) {
        ++wrong[static_cast<std::size_t>(bit)];
      }
    }
    const bool predictedCout = test[t].goldCout != flips.coutFlip;
    const std::uint64_t predictedSilver =
        flips.predictedSilver(test[t].gold) |
        (static_cast<std::uint64_t>(predictedCout ? 1 : 0) << 32);
    const std::uint64_t realSilver = test[t].silverValue(32);
    if (realSilver == 0) {
      ++skipped;
    } else {
      const std::uint64_t diff = predictedSilver >= realSilver
                                     ? predictedSilver - realSilver
                                     : realSilver - predictedSilver;
      avpeSum += static_cast<double>(diff) / static_cast<double>(realSilver);
    }
  }
  const std::uint64_t cycles = test.size() - 1;
  ASSERT_EQ(eval.cycles, cycles);
  EXPECT_EQ(eval.avpeSkipped, skipped);
  double abperSum = 0.0;
  for (int bit = 0; bit <= 32; ++bit) {
    const double rate =
        static_cast<double>(wrong[static_cast<std::size_t>(bit)]) /
        static_cast<double>(cycles);
    EXPECT_EQ(eval.perBitErrorRate[static_cast<std::size_t>(bit)], rate)
        << "bit " << bit;
    abperSum += rate;
  }
  EXPECT_EQ(eval.abper, abperSum / 33.0);
  const std::uint64_t avpeCycles = cycles - skipped;
  EXPECT_EQ(eval.avpe,
            avpeCycles ? avpeSum / static_cast<double>(avpeCycles) : 0.0);
}

TEST(PackedPredictorTest, AvpeUsesIntegerMagnitude) {
  // Values past 2^53: |a - b| computed through doubles collapses small
  // differences to zero; the integer-arithmetic path must not. Build a
  // width-60 trace whose silver value differs from gold by exactly 1 in a
  // minority of cycles, so the Majority baseline predicts "no flips" and
  // every erroneous cycle contributes 1/realSilver ~ 2^-59 to AVPE — tiny
  // but strictly positive. The double-subtraction implementation rounds
  // gold and gold^1 to the same double (spacing 128 at 2^59) and returns
  // exactly 0.
  const int width = 60;
  Trace trace;
  for (int t = 0; t < 130; ++t) {
    TraceRecord rec;
    rec.a = (std::uint64_t{1} << 59) + static_cast<std::uint64_t>(t);
    rec.b = 1;
    rec.gold = rec.a + rec.b;
    rec.silver = (t % 3 == 0) ? (rec.gold ^ 1u) : rec.gold;
    rec.diamond = rec.gold;
    trace.push_back(rec);
  }
  oisa::predict::PredictorParams params;
  params.forest = oisa::testing::majorityParams();
  BitLevelPredictor predictor(width, params);
  predictor.fit(trace);
  const auto eval = predictor.evaluate(trace);
  EXPECT_GT(eval.avpe, 0.0);
  EXPECT_LT(eval.avpe, 1e-17);
}

}  // namespace
