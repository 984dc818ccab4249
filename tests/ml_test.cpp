// ML substrate tests: dataset mechanics, CART splits, forest behavior,
// baselines, metrics and serialization round-trips.
#include <gtest/gtest.h>

#include <random>

#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

#include "differential_harness.h"

namespace {

using oisa::ml::ConfusionMatrix;
using oisa::ml::Dataset;
using oisa::ml::DecisionTree;
using oisa::ml::ForestParams;
using oisa::ml::RandomForest;
using oisa::ml::TreeParams;

Dataset xorDataset(int copies) {
  // Label = f0 XOR f1, with a few irrelevant noise features.
  Dataset data(4);
  std::mt19937_64 rng(3);
  for (int c = 0; c < copies; ++c) {
    for (int pattern = 0; pattern < 4; ++pattern) {
      const std::uint8_t f0 = pattern & 1;
      const std::uint8_t f1 = (pattern >> 1) & 1;
      const std::vector<std::uint8_t> row{
          f0, f1, static_cast<std::uint8_t>(rng() & 1),
          static_cast<std::uint8_t>(rng() & 1)};
      data.addRow(row, (f0 ^ f1) != 0);
    }
  }
  return data;
}

TEST(DatasetTest, StoresRowsAndLabels) {
  Dataset data(3);
  data.addRow(std::vector<std::uint8_t>{1, 0, 1}, true);
  data.addRow(std::vector<std::uint8_t>{0, 0, 0}, false);
  EXPECT_EQ(data.rowCount(), 2u);
  EXPECT_EQ(data.featureCount(), 3u);
  EXPECT_EQ(data.positiveCount(), 1u);
  EXPECT_TRUE(data.label(0));
  EXPECT_EQ(data.feature(0, 2), 1);
  EXPECT_EQ(data.row(1)[0], 0);
}

TEST(DatasetTest, RejectsBadShapes) {
  EXPECT_THROW(Dataset(0), std::invalid_argument);
  Dataset data(2);
  EXPECT_THROW(data.addRow(std::vector<std::uint8_t>{1}, true),
               std::invalid_argument);
}

TEST(DecisionTreeTest, LearnsXorExactly) {
  const Dataset data = xorDataset(25);
  DecisionTree tree;
  tree.fit(data, TreeParams{});
  for (std::size_t i = 0; i < data.rowCount(); ++i) {
    EXPECT_EQ(tree.predict(data.row(i)), data.label(i));
  }
  EXPECT_GE(tree.depth(), 2);  // XOR needs two levels
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  Dataset data(2);
  for (int i = 0; i < 10; ++i) {
    data.addRow(std::vector<std::uint8_t>{
                    static_cast<std::uint8_t>(i & 1), 1},
                false);
  }
  DecisionTree tree;
  tree.fit(data, TreeParams{});
  EXPECT_EQ(tree.nodeCount(), 1u);
  EXPECT_FALSE(tree.predict(data.row(0)));
  EXPECT_DOUBLE_EQ(tree.predictProbability(data.row(0)), 0.0);
}

TEST(DecisionTreeTest, MaxDepthZeroIsMajorityVote) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.addRow(std::vector<std::uint8_t>{static_cast<std::uint8_t>(i & 1)},
                i < 7);
  }
  DecisionTree tree;
  tree.fit(data, TreeParams{0, 2, 1, 0});
  EXPECT_EQ(tree.nodeCount(), 1u);
  EXPECT_TRUE(tree.predict(data.row(0)));
  EXPECT_NEAR(tree.predictProbability(data.row(0)), 0.7, 1e-6);
}

TEST(DecisionTreeTest, PredictBeforeFitThrows) {
  const DecisionTree tree;
  const std::vector<std::uint8_t> row{0};
  EXPECT_THROW((void)tree.predict(row), std::logic_error);
}

TEST(DecisionTreeTest, FitIsDeterministicGivenSeed) {
  const Dataset data = xorDataset(50);
  TreeParams params;
  params.featuresPerSplit = 2;
  DecisionTree t1, t2;
  t1.fit(data, params, 99);
  t2.fit(data, params, 99);
  ASSERT_EQ(t1.nodeCount(), t2.nodeCount());
  for (std::size_t i = 0; i < t1.nodes().size(); ++i) {
    EXPECT_EQ(t1.nodes()[i].feature, t2.nodes()[i].feature);
  }
}

TEST(RandomForestTest, LearnsNoisyMajorityFunction) {
  // Label = majority(f0, f1, f2) with 5% label noise: the forest should be
  // much better than chance and at least as good as the majority baseline.
  Dataset train(6), test(6);
  std::mt19937_64 rng(7);
  auto fill = [&](Dataset& d, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<std::uint8_t> row(6);
      for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
      bool label = (row[0] + row[1] + row[2]) >= 2;
      if ((rng() % 100) < 5) label = !label;
      d.addRow(row, label);
    }
  };
  fill(train, 2000);
  fill(test, 1000);

  RandomForest forest;
  ForestParams params;
  params.treeCount = 15;
  forest.fit(train, params, 11);
  const ConfusionMatrix cm = evaluate(forest, test);
  EXPECT_GT(cm.accuracy(), 0.9);

  // The majority baseline: a 1-tree forest cut at depth 0.
  RandomForest baseline;
  baseline.fit(train, oisa::testing::majorityParams(), 11);
  const ConfusionMatrix base = evaluate(baseline, test);
  EXPECT_GT(cm.accuracy(), base.accuracy());
}

TEST(RandomForestTest, ConstantLabelsShortCircuitToOneLeaf) {
  Dataset data(4);
  std::mt19937_64 rng(13);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> row(4);
    for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
    data.addRow(row, false);
  }
  RandomForest forest;
  forest.fit(data, ForestParams{}, 1);
  EXPECT_EQ(forest.trees().size(), 1u);
  EXPECT_FALSE(forest.predict(data.row(0)));
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const Dataset data = xorDataset(100);
  ForestParams params;
  params.treeCount = 5;
  RandomForest f1, f2;
  f1.fit(data, params, 21);
  f2.fit(data, params, 21);
  std::mt19937_64 rng(23);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> row(4);
    for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
    EXPECT_DOUBLE_EQ(f1.predictProbability(row), f2.predictProbability(row));
  }
}

TEST(RandomForestTest, RejectsDegenerateParams) {
  Dataset empty(2);
  RandomForest forest;
  EXPECT_THROW(forest.fit(empty, ForestParams{}), std::invalid_argument);
  Dataset one(2);
  one.addRow(std::vector<std::uint8_t>{0, 1}, true);
  ForestParams zeroTrees;
  zeroTrees.treeCount = 0;
  EXPECT_THROW(forest.fit(one, zeroTrees), std::invalid_argument);
}

TEST(ConfusionMatrixTest, DerivedScores) {
  ConfusionMatrix cm;
  // 8 TP, 2 FN, 1 FP, 9 TN.
  for (int i = 0; i < 8; ++i) cm.add(true, true);
  for (int i = 0; i < 2; ++i) cm.add(false, true);
  cm.add(true, false);
  for (int i = 0; i < 9; ++i) cm.add(false, false);
  EXPECT_EQ(cm.total(), 20u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 17.0 / 20.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 8.0 / 9.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 8.0 / 10.0);
  EXPECT_NEAR(cm.f1(),
              2.0 * (8.0 / 9.0) * 0.8 / ((8.0 / 9.0) + 0.8), 1e-12);
}

}  // namespace
