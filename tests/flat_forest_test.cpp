// Flat forest bank tests: SoA flattening vs pointer forests (bit-exact,
// on random datasets and on banks trained from real collected traces),
// the pruned 64-lane walk vs the full in-order sum at the decision
// boundary, the binary envelope v2 (round trips, mmap loads,
// flip-any-byte / truncate-anywhere corruption), and the batch-64
// predictFlipsBlock hot path vs the scalar reference, including the
// ragged final block; feature importance on the flat view vs a
// pointer-tree oracle, and loaded-bank parity (importance, scalar
// reference, evaluate) for every ablation kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_adder.h"
#include "core/status.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "ml/dataset.h"
#include "ml/flat_forest.h"
#include "ml/importance.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "predict/bit_predictor.h"
#include "timing/cell_library.h"

#include "differential_harness.h"

namespace {

using oisa::core::Status;
using oisa::core::StatusCode;
using oisa::ml::FlatBankView;
using oisa::ml::FlatForest;
using oisa::ml::FlatForestBank;
using oisa::ml::ForestParams;
using oisa::ml::MappedForestBank;
using oisa::ml::RandomForest;
using oisa::predict::BitLevelPredictor;
using oisa::predict::PredictedFlips;
using oisa::predict::PredictorParams;
using oisa::predict::Trace;
using oisa::predict::TraceRecord;

oisa::ml::Dataset randomDataset(std::size_t features, std::size_t rows,
                                std::uint64_t seed) {
  // Label = f0 XOR f2 with noise, so trees grow real structure.
  oisa::ml::Dataset data(features);
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> row(features);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& f : row) f = static_cast<std::uint8_t>(rng() & 1u);
    bool label = (row[0] ^ row[2]) != 0;
    if ((rng() & 0xfu) == 0) label = !label;
    data.addRow(row, label);
  }
  return data;
}

std::vector<RandomForest> trainForests(std::size_t count,
                                       std::size_t features,
                                       std::uint64_t seed) {
  std::vector<RandomForest> forests;
  for (std::size_t i = 0; i < count; ++i) {
    ForestParams params;
    params.treeCount = 5;
    // Shallow trees keep banks small enough for the O(bytes^2)
    // flip-every-byte / truncate-everywhere corruption sweeps.
    params.tree.maxDepth = 4;
    RandomForest forest;
    forest.fit(randomDataset(features, 200, seed * 31 + i), params, seed + i);
    forests.push_back(std::move(forest));
  }
  return forests;
}

/// Synthetic overclocked-adder trace with transition-sensitized flips
/// (the micro_predict generator, narrowed).
Trace syntheticTrace(int width, std::uint64_t cycles, std::uint64_t seed) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::mt19937_64 rng(seed);
  Trace trace;
  std::uint64_t prevA = 0;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    TraceRecord rec;
    rec.a = rng() & mask;
    rec.b = rng() & mask;
    const std::uint64_t sum = rec.a + rec.b;
    rec.gold = sum & mask;
    rec.goldCout = ((sum >> width) & 1u) != 0;
    rec.diamond = rec.gold;
    rec.diamondCout = rec.goldCout;
    rec.silver = rec.gold;
    rec.silverCout = rec.goldCout;
    for (const int k : {1, 5, 9}) {
      if (k + 1 >= width) continue;
      const bool carry = ((rec.a >> k) & (rec.b >> k) & 1u) != 0;
      if (carry && ((prevA >> k) & 1u) == 0) {
        rec.silver ^= std::uint64_t{1} << (k + 1);
      }
    }
    if ((rng() & 0x1fu) == 0) rec.silverCout = !rec.silverCout;
    prevA = rec.a;
    trace.push_back(rec);
  }
  return trace;
}

/// Asserts block-path predictions equal the scalar reference pair by
/// pair over the whole trace, sweeping in 64-lane blocks (final ragged).
void expectBlockMatchesReference(const BitLevelPredictor& predictor,
                                 const Trace& trace) {
  const std::size_t rows = trace.size() - 1;
  std::vector<PredictedFlips> flips(rows);
  const std::span<const TraceRecord> records(trace);
  for (std::size_t base = 0; base < rows; base += 64) {
    const std::size_t n = std::min<std::size_t>(64, rows - base);
    predictor.predictFlipsBlock(records.subspan(base, n + 1),
                                std::span(flips).subspan(base, n));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const PredictedFlips ref =
        predictor.predictFlipsReference(trace[r], trace[r + 1]);
    ASSERT_EQ(flips[r].sumFlips, ref.sumFlips) << "row " << r;
    ASSERT_EQ(flips[r].coutFlip, ref.coutFlip) << "row " << r;
  }
}

/// Asserts two banks give the same feature importance and the same
/// scalar reference predictions on every pair of `trace`.
void expectSameBankQueries(const BitLevelPredictor& a,
                           const BitLevelPredictor& b, const Trace& trace) {
  EXPECT_EQ(a.featureImportance(), b.featureImportance());
  for (std::size_t r = 0; r + 1 < trace.size(); ++r) {
    const PredictedFlips x = a.predictFlipsReference(trace[r], trace[r + 1]);
    const PredictedFlips y = b.predictFlipsReference(trace[r], trace[r + 1]);
    ASSERT_EQ(x.sumFlips, y.sumFlips) << "row " << r;
    ASSERT_EQ(x.coutFlip, y.coutFlip) << "row " << r;
  }
}

/// Split-usage importance computed on the pointer trees: per tree 2^-depth
/// per split, pushed left then right, normalized per tree, per forest and
/// over the bank — the oracle for ml::featureImportance on the flat view.
std::vector<double> pointerImportance(std::span<const RandomForest> forests,
                                      std::size_t features) {
  const auto normalize = [](std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    if (total > 0.0) {
      for (double& x : v) x /= total;
    }
  };
  std::vector<double> bank(features, 0.0);
  for (const RandomForest& forest : forests) {
    std::vector<double> sum(features, 0.0);
    for (const oisa::ml::DecisionTree& tree : forest.trees()) {
      std::vector<double> one(features, 0.0);
      std::vector<std::pair<std::uint32_t, int>> stack{{0u, 0}};
      while (!stack.empty()) {
        const auto [idx, depth] = stack.back();
        stack.pop_back();
        const auto& node = tree.nodes()[idx];
        if (node.feature < 0) continue;
        one[static_cast<std::size_t>(node.feature)] += std::ldexp(1.0, -depth);
        stack.emplace_back(node.left, depth + 1);
        stack.emplace_back(node.right, depth + 1);
      }
      normalize(one);
      for (std::size_t i = 0; i < features; ++i) sum[i] += one[i];
    }
    normalize(sum);
    for (std::size_t i = 0; i < features; ++i) bank[i] += sum[i];
  }
  normalize(bank);
  return bank;
}

TEST(FlatForestTest, ImportanceMatchesPointerTreesExactly) {
  for (const std::uint64_t seed : {3u, 8u}) {
    constexpr std::size_t kFeatures = 9;
    const auto forests = trainForests(4, kFeatures, seed);
    const FlatForestBank bank = FlatForestBank::build(forests, kFeatures);
    const std::vector<double> flat = oisa::ml::featureImportance(bank.view());
    EXPECT_EQ(flat, pointerImportance(forests, kFeatures));
    double total = 0.0;
    for (const double v : flat) total += v;
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(FlatForestTest, ImportanceWalkIsLinearOnSharedArenas) {
  // validateFlatBank accepts DAG-shaped arenas (children only have to
  // follow their parent). A 63-deep chain whose nodes send both branches
  // to the next node has 2^63 root-to-leaf paths; the importance walk
  // must stop after nodeCount() visits instead of enumerating them.
  constexpr std::uint32_t kChain = 63;
  std::vector<std::int16_t> feature(kChain + 1, 0);
  feature[kChain] = -1;
  std::vector<std::uint32_t> left(kChain + 1), right(kChain + 1);
  for (std::uint32_t i = 0; i < kChain; ++i) left[i] = right[i] = i + 1;
  const std::vector<float> prob(kChain + 1, 0.5f);
  const std::vector<std::uint32_t> roots{0};
  const std::vector<std::uint32_t> forestBegin{0, 1};
  FlatBankView dag;
  dag.feature = feature;
  dag.left = left;
  dag.right = right;
  dag.prob = prob;
  dag.roots = roots;
  dag.forestBegin = forestBegin;
  dag.featureCount = 4;
  ASSERT_TRUE(oisa::ml::validateFlatBank(dag).isOk());
  const std::vector<double> importance = oisa::ml::featureImportance(dag);
  ASSERT_EQ(importance.size(), 4u);
  EXPECT_EQ(importance[0], 1.0);  // every visited split uses feature 0
}

TEST(FlatForestTest, MatchesPointerForestsOnRandomDatasets) {
  for (const std::uint64_t seed : {7u, 19u, 83u}) {
    constexpr std::size_t kFeatures = 12;
    const auto forests = trainForests(4, kFeatures, seed);
    const FlatForestBank bank = FlatForestBank::build(forests, kFeatures);
    ASSERT_TRUE(oisa::ml::validateFlatBank(bank.view()).isOk());
    std::mt19937_64 rng(seed ^ 0xabcdu);
    std::vector<std::uint8_t> row(kFeatures);
    for (int r = 0; r < 200; ++r) {
      for (auto& f : row) f = static_cast<std::uint8_t>(rng() & 1u);
      for (std::size_t i = 0; i < forests.size(); ++i) {
        const FlatForest flat(bank.view(), i);
        ASSERT_DOUBLE_EQ(flat.probability(row),
                         forests[i].predictProbability(row));
        ASSERT_EQ(flat.predict(row), forests[i].predict(row));
      }
    }
  }
}

TEST(FlatForestTest, PredictWordMatchesScalarLaneForLane) {
  constexpr std::size_t kFeatures = 10;
  const auto forests = trainForests(3, kFeatures, 5);
  const FlatForestBank bank = FlatForestBank::build(forests, kFeatures);
  std::mt19937_64 rng(99);
  // 64 random rows as bit-columns: featureWords[f] bit `lane` = row value.
  std::array<std::vector<std::uint8_t>, 64> rows;
  std::vector<std::uint64_t> featureWords(kFeatures, 0);
  for (std::size_t lane = 0; lane < 64; ++lane) {
    rows[lane].resize(kFeatures);
    for (std::size_t f = 0; f < kFeatures; ++f) {
      rows[lane][f] = static_cast<std::uint8_t>(rng() & 1u);
      if (rows[lane][f] != 0) featureWords[f] |= std::uint64_t{1} << lane;
    }
  }
  std::array<double, 64> scratch;
  FlatForest::WalkCounts counts;
  for (std::size_t i = 0; i < forests.size(); ++i) {
    const FlatForest flat(bank.view(), i);
    const std::uint64_t word =
        flat.predictWord(featureWords, scratch.data(), counts);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      // predictWord leaves no probabilities behind (its sums are
      // scratch); the flat scalar walk carries the exact-probability
      // check, the word the lane-for-lane decision check.
      ASSERT_EQ(flat.probability(rows[lane]),
                forests[i].predictProbability(rows[lane]));
      ASSERT_EQ(((word >> lane) & 1u) != 0, forests[i].predict(rows[lane]));
    }
  }
  EXPECT_EQ(counts.walked + counts.pruned, 3u * 5u);
}

/// A hand-built bank in which every tree is a complete depth-6 tree
/// splitting on features 0..5 at depths 0..5, so lane L (feature f =
/// bit f of L) reaches its own leaf in every tree and each lane's leaf
/// sequence is set freely: leaves[t][L] is lane L's leaf in tree t.
struct LaneBank {
  std::vector<std::uint32_t> forestBegin, roots, left, right;
  std::vector<std::int16_t> feature;
  std::vector<float> prob;
  oisa::ml::FlatBankBounds bounds;
  FlatBankView view;

  explicit LaneBank(const std::vector<std::array<float, 64>>& leaves) {
    forestBegin = {0, static_cast<std::uint32_t>(leaves.size())};
    for (const auto& treeLeaves : leaves) {
      const auto base = static_cast<std::uint32_t>(feature.size());
      roots.push_back(base);
      for (std::uint32_t i = 0; i < 127; ++i) {
        const bool leaf = i >= 63;
        feature.push_back(leaf ? std::int16_t{-1}
                               : static_cast<std::int16_t>(
                                     std::bit_width(i + 1) - 1));
        left.push_back(leaf ? 0 : base + 2 * i + 1);
        right.push_back(leaf ? 0 : base + 2 * i + 2);
        prob.push_back(0.0f);
      }
      for (std::uint32_t lane = 0; lane < 64; ++lane) {
        std::uint32_t i = 0;
        for (int depth = 0; depth < 6; ++depth) {
          i = 2 * i + 1 + ((lane >> depth) & 1u);
        }
        prob[base + i] = treeLeaves[lane];
      }
    }
    FlatBankView v;
    v.forestBegin = forestBegin;
    v.roots = roots;
    v.feature = feature;
    v.left = left;
    v.right = right;
    v.prob = prob;
    v.featureCount = 6;
    if (!oisa::ml::validateFlatBank(v).isOk()) {
      throw std::logic_error("LaneBank: invalid hand-built bank");
    }
    bounds = oisa::ml::deriveFlatBankBounds(v);
    bounds.attachTo(v);
    view = v;
  }
  LaneBank(const LaneBank&) = delete;
  LaneBank& operator=(const LaneBank&) = delete;
};

/// Feature words of the LaneBank layout: feature f holds bit f of the
/// lane index.
std::array<std::uint64_t, 6> laneIndexWords() {
  std::array<std::uint64_t, 6> words{};
  for (std::uint32_t lane = 0; lane < 64; ++lane) {
    for (std::size_t f = 0; f < 6; ++f) {
      if ((lane >> f) & 1u) words[f] |= std::uint64_t{1} << lane;
    }
  }
  return words;
}

/// Greedy float leaves whose in-order double sum approaches `target`:
/// each leaf is the largest float <= min(1, target - partial), so the
/// chain of leaves resolves ever finer bits until the sum lands on the
/// target exactly (when floats can express it in `trees` leaves). With
/// `zerosFirst` the leaves fill the last trees and the first stay 0.
std::vector<float> leavesToward(double target, std::size_t trees,
                                bool zerosFirst) {
  std::vector<float> leaves(trees, 0.0f);
  double partial = 0.0;
  for (std::size_t k = 0; k < trees; ++k) {
    const double want = std::clamp(target - partial, 0.0, 1.0);
    auto v = static_cast<float>(want);
    if (static_cast<double>(v) > want) v = std::nextafter(v, 0.0f);
    leaves[zerosFirst ? trees - 1 - k : k] = v;
    partial += v;
  }
  return leaves;
}

/// Leaves whose in-order sum rounds up onto s* one addition at a time
/// while the suffix-bound estimate stays below it: a greedy chain to
/// s* - 2U (U = the ulp below s*), then two leaves of just over U/2, each
/// of which rounds the partial sum up by a whole ulp. After the chain,
/// fl(P + S) = fl(s* - 2U + fl(2a)) = s* - U < s*, so only the rounding
/// margin keeps the walk from pruning a lane that ends positive. Empty
/// when the chain needs more than trees - 2 leaves.
std::vector<float> roundingUpOnto(double sStar, std::size_t trees) {
  if (trees < 3) return {};
  const double ulp = sStar - std::nextafter(sStar, 0.0);
  std::vector<float> leaves = leavesToward(sStar - 2.0 * ulp, trees - 2,
                                           /*zerosFirst=*/false);
  double partial = 0.0;
  for (const float v : leaves) partial += v;
  if (partial != sStar - 2.0 * ulp) return {};
  const auto a = static_cast<float>(ulp * (0.5 + 0x1p-10));
  leaves.push_back(a);
  leaves.push_back(a);
  return leaves;
}

/// In-order double sum of a lane's leaves (the full, unpruned sum).
double inOrderSum(const std::vector<float>& leaves) {
  double sum = 0.0;
  for (const float v : leaves) sum += v;
  return sum;
}

TEST(FlatForestTest, PrunedDecisionsMatchFullSums) {
  const auto words = laneIndexWords();
  std::array<double, 64> scratch;
  for (const std::size_t trees : {1u, 2u, 3u, 7u, 10u, 65u}) {
    const double count = static_cast<double>(trees);
    // s* as the oracle defines it: the smallest sum whose mean rounds to
    // >= 0.5.
    double sStar = count * 0.5;
    while (std::nextafter(sStar, 0.0) / count >= 0.5) {
      sStar = std::nextafter(sStar, 0.0);
    }
    const double below = std::nextafter(sStar, 0.0);
    const double above = std::nextafter(sStar, 2.0 * sStar);
    ASSERT_LT(below / count, 0.5);
    // Lane leaf sequences: exact ties at 0.5, 0/1 leaves, and sums that
    // land on s* and one double ulp either side, front- and back-loaded.
    std::vector<std::vector<float>> lanes;
    lanes.push_back(std::vector<float>(trees, 0.5f));
    lanes.push_back(std::vector<float>(trees, 0.0f));
    lanes.push_back(std::vector<float>(trees, 1.0f));
    for (std::size_t phase = 0; phase < 2; ++phase) {
      std::vector<float> alternating(trees);
      for (std::size_t t = 0; t < trees; ++t) {
        alternating[t] = (t + phase) % 2 == 0 ? 1.0f : 0.0f;
      }
      lanes.push_back(alternating);
    }
    for (const float half : {std::nextafter(0.5f, 0.0f),
                             std::nextafter(0.5f, 1.0f)}) {
      lanes.push_back(std::vector<float>(trees, half));
    }
    // The negative-test threshold depends on the tree count only.
    const double negative =
        LaneBank(std::vector<std::array<float, 64>>(trees)).view.thresholds[0]
            .negative;
    const std::size_t boundaryBegin = lanes.size();
    for (const double target :
         {sStar, below, above, negative, std::nextafter(negative, 0.0),
          std::nextafter(negative, sStar)}) {
      for (const bool zerosFirst : {false, true}) {
        lanes.push_back(leavesToward(target, trees, zerosFirst));
      }
    }
    const std::vector<float> roundsUp = roundingUpOnto(sStar, trees);
    if (trees >= 10) {
      ASSERT_FALSE(roundsUp.empty()) << "trees " << trees;
      ASSERT_EQ(inOrderSum(roundsUp), sStar) << "trees " << trees;
    }
    if (!roundsUp.empty()) lanes.push_back(roundsUp);

    // Banks: one "loose" bank mixing every sequence (the 0/1 lanes make
    // each tree's max leaf 1), and per boundary sequence one "tight" bank
    // holding only it and zero lanes, so the suffix bound equals the
    // lane's own remaining leaves and the rounding margin alone decides
    // whether a boundary lane is pruned.
    std::vector<std::vector<std::vector<float>>> banks;
    banks.emplace_back();
    for (std::size_t lane = 0; lane < 64; ++lane) {
      banks.back().push_back(lanes[lane % lanes.size()]);
    }
    for (std::size_t k = boundaryBegin; k < lanes.size(); ++k) {
      banks.emplace_back(64, std::vector<float>(trees, 0.0f));
      for (std::size_t lane = 0; lane < 32; ++lane) {
        banks.back()[lane] = lanes[k];
      }
    }
    std::size_t onStar = 0, onBelow = 0, onAbove = 0;
    for (const auto& laneLeaves : banks) {
      std::vector<std::array<float, 64>> leaves(trees);
      for (std::size_t t = 0; t < trees; ++t) {
        for (std::size_t lane = 0; lane < 64; ++lane) {
          leaves[t][lane] = laneLeaves[lane][t];
        }
      }
      const LaneBank bank(leaves);
      const FlatForest forest(bank.view, 0);
      FlatForest::WalkCounts counts;
      const std::uint64_t word =
          forest.predictWord(words, scratch.data(), counts);
      EXPECT_EQ(counts.walked + counts.pruned, trees);
      std::array<std::uint8_t, 6> row;
      for (std::uint32_t lane = 0; lane < 64; ++lane) {
        for (std::size_t f = 0; f < 6; ++f) {
          row[f] = static_cast<std::uint8_t>((lane >> f) & 1u);
        }
        const double sum = inOrderSum(laneLeaves[lane]);
        ASSERT_EQ(forest.probability(row), sum / count);
        ASSERT_EQ(((word >> lane) & 1u) != 0, sum / count >= 0.5)
            << "trees " << trees << " lane " << lane << " sum " << sum;
        onStar += sum == sStar;
        onBelow += sum == below;
        onAbove += sum == above;
      }
    }
    // Coverage: s* is always reachable; one ulp above needs two leaves;
    // one ulp below needs enough leaves to resolve the double ulp.
    EXPECT_GT(onStar, 0u) << "trees " << trees;
    if (trees >= 2) {
      EXPECT_GT(onAbove, 0u) << "trees " << trees;
    }
    if (trees >= 7) {
      EXPECT_GT(onBelow, 0u) << "trees " << trees;
    }
  }

  // Random trained banks across the same tree counts.
  for (const std::size_t trees : {1u, 2u, 3u, 7u, 10u, 65u}) {
    constexpr std::size_t kFeatures = 10;
    ForestParams params;
    params.treeCount = trees;
    params.tree.maxDepth = 6;
    std::vector<RandomForest> forests(3);
    for (std::size_t i = 0; i < forests.size(); ++i) {
      forests[i].fit(randomDataset(kFeatures, 300, trees * 7 + i), params,
                     trees + i);
    }
    const FlatForestBank bank = FlatForestBank::build(forests, kFeatures);
    std::mt19937_64 rng(trees);
    std::vector<std::uint64_t> featureWords(kFeatures);
    std::vector<std::uint8_t> row(kFeatures);
    for (int rep = 0; rep < 20; ++rep) {
      for (auto& w : featureWords) w = rng();
      for (std::size_t i = 0; i < forests.size(); ++i) {
        const FlatForest flat(bank.view(), i);
        FlatForest::WalkCounts counts;
        const std::uint64_t word =
            flat.predictWord(featureWords, scratch.data(), counts);
        for (std::size_t lane = 0; lane < 64; ++lane) {
          for (std::size_t f = 0; f < kFeatures; ++f) {
            row[f] = static_cast<std::uint8_t>((featureWords[f] >> lane) & 1u);
          }
          ASSERT_EQ(((word >> lane) & 1u) != 0, flat.probability(row) >= 0.5)
              << "trees " << trees << " forest " << i << " lane " << lane;
        }
      }
    }
  }
}

TEST(FlatForestTest, ValidateRejectsStructuralViolations) {
  const auto forests = trainForests(2, 8, 11);
  const FlatForestBank bank = FlatForestBank::build(forests, 8);
  const FlatBankView good = bank.view();
  ASSERT_TRUE(oisa::ml::validateFlatBank(good).isOk());

  // Each doctored copy must be rejected even though its CRC would be
  // valid if re-serialized: validation is structural, not checksummed.
  auto copyArrays = [&] {
    struct Arrays {
      std::vector<std::uint32_t> forestBegin;
      std::vector<std::uint32_t> roots, left, right;
      std::vector<std::int16_t> feature;
      std::vector<float> prob;
      FlatBankView view(std::uint32_t featureCount) const {
        FlatBankView v;
        v.forestBegin = forestBegin;
        v.roots = roots;
        v.feature = feature;
        v.left = left;
        v.right = right;
        v.prob = prob;
        v.featureCount = featureCount;
        return v;
      }
    } a;
    a.forestBegin.assign(good.forestBegin.begin(), good.forestBegin.end());
    a.roots.assign(good.roots.begin(), good.roots.end());
    a.feature.assign(good.feature.begin(), good.feature.end());
    a.left.assign(good.left.begin(), good.left.end());
    a.right.assign(good.right.begin(), good.right.end());
    a.prob.assign(good.prob.begin(), good.prob.end());
    return a;
  };

  {  // A split node whose child does not follow it (cycle potential).
    auto a = copyArrays();
    for (std::size_t i = 0; i < a.feature.size(); ++i) {
      if (a.feature[i] >= 0) {
        a.left[i] = static_cast<std::uint32_t>(i);
        break;
      }
    }
    EXPECT_EQ(oisa::ml::validateFlatBank(a.view(8)).code(),
              StatusCode::Corruption);
  }
  {  // Root index out of range.
    auto a = copyArrays();
    a.roots[0] = static_cast<std::uint32_t>(a.feature.size());
    EXPECT_EQ(oisa::ml::validateFlatBank(a.view(8)).code(),
              StatusCode::Corruption);
  }
  {  // Split feature beyond the declared feature count.
    auto a = copyArrays();
    EXPECT_EQ(oisa::ml::validateFlatBank(a.view(1)).code(),
              StatusCode::Corruption);
  }
  {  // Non-monotonic forest offsets.
    auto a = copyArrays();
    a.forestBegin.back() = 0;
    EXPECT_EQ(oisa::ml::validateFlatBank(a.view(8)).code(),
              StatusCode::Corruption);
  }
  // Leaf probabilities outside [0, 1] (or NaN) would void the pruned
  // walk's bounds: rejected with the offending node located.
  for (const float bad : {-0.25f, 1.5f, std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    auto a = copyArrays();
    std::size_t leaf = 0;
    while (a.feature[leaf] >= 0) ++leaf;
    a.prob[leaf] = bad;
    const Status status = oisa::ml::validateFlatBank(a.view(8));
    EXPECT_EQ(status.code(), StatusCode::Corruption) << bad;
    EXPECT_NE(status.toString().find("node " + std::to_string(leaf) + " leaf"),
              std::string::npos)
        << status.toString();
  }
}

TEST(EnvelopeV2Test, RoundTripsThroughBufferAndFile) {
  const auto forests = trainForests(3, 9, 23);
  const FlatForestBank bank = FlatForestBank::build(forests, 9);
  const std::string bytes = oisa::ml::serializeFlatBank(bank.view(), 17, 1);

  auto fromBuf = MappedForestBank::fromBuffer(bytes);
  ASSERT_TRUE(fromBuf.isOk()) << fromBuf.status().toString();
  const MappedForestBank inMemory = std::move(fromBuf).valueOrThrow();
  EXPECT_EQ(inMemory.meta0(), 17u);
  EXPECT_EQ(inMemory.meta1(), 1u);
  EXPECT_FALSE(inMemory.mapped());

  const auto path =
      (std::filesystem::temp_directory_path() / "flat_forest_test.ffb")
          .string();
  ASSERT_TRUE(oisa::ml::writeFlatBankFile(path, bank.view(), 17, 1).isOk());
  auto fromFile = MappedForestBank::open(path);
  ASSERT_TRUE(fromFile.isOk()) << fromFile.status().toString();
  const MappedForestBank mapped = std::move(fromFile).valueOrThrow();
  std::remove(path.c_str());

  for (const MappedForestBank* loaded : {&inMemory, &mapped}) {
    const FlatBankView v = loaded->view();
    const FlatBankView w = bank.view();
    ASSERT_TRUE(oisa::ml::validateFlatBank(v).isOk());
    ASSERT_EQ(v.featureCount, w.featureCount);
    ASSERT_TRUE(std::ranges::equal(v.forestBegin, w.forestBegin));
    ASSERT_TRUE(std::ranges::equal(v.roots, w.roots));
    ASSERT_TRUE(std::ranges::equal(v.feature, w.feature));
    ASSERT_TRUE(std::ranges::equal(v.left, w.left));
    ASSERT_TRUE(std::ranges::equal(v.right, w.right));
    ASSERT_TRUE(std::ranges::equal(v.prob, w.prob));
    // The derived bounds are recomputed on load, identically.
    ASSERT_TRUE(std::ranges::equal(v.suffixMax, w.suffixMax));
    ASSERT_EQ(v.thresholds.size(), w.thresholds.size());
    for (std::size_t f = 0; f < v.thresholds.size(); ++f) {
      ASSERT_EQ(v.thresholds[f].positive, w.thresholds[f].positive);
      ASSERT_EQ(v.thresholds[f].negative, w.thresholds[f].negative);
    }
  }
}

TEST(EnvelopeV2Test, FlippingAnyByteIsCorruption) {
  const auto forests = trainForests(2, 6, 3);
  const FlatForestBank bank = FlatForestBank::build(forests, 6);
  const std::string bytes = oisa::ml::serializeFlatBank(bank.view());
  ASSERT_TRUE(MappedForestBank::fromBuffer(bytes).isOk());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    const auto result = MappedForestBank::fromBuffer(std::move(corrupt));
    ASSERT_FALSE(result.isOk()) << "byte " << i << " flip went undetected";
    ASSERT_EQ(result.status().code(), StatusCode::Corruption) << "byte " << i;
  }
}

TEST(EnvelopeV2Test, TruncatingAnywhereIsCorruption) {
  const auto forests = trainForests(2, 6, 13);
  const FlatForestBank bank = FlatForestBank::build(forests, 6);
  const std::string bytes = oisa::ml::serializeFlatBank(bank.view());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto result = MappedForestBank::fromBuffer(bytes.substr(0, len));
    ASSERT_FALSE(result.isOk()) << "truncation to " << len << " undetected";
    ASSERT_EQ(result.status().code(), StatusCode::Corruption) << "len " << len;
  }
}

TEST(PredictFlipsBlockTest, MatchesScalarIncludingRaggedFinalBlock) {
  // 150 pairs = two full 64-lane blocks + a ragged 22-lane tail.
  const Trace train = syntheticTrace(16, 1500, 71);
  const Trace test = syntheticTrace(16, 151, 72);
  PredictorParams params;
  params.forest.treeCount = 6;
  BitLevelPredictor predictor(16, params);
  predictor.fit(train);
  expectBlockMatchesReference(predictor, test);
}

TEST(PredictFlipsBlockTest, GuardsAgainstMisuse) {
  const Trace train = syntheticTrace(8, 600, 5);
  BitLevelPredictor predictor(8);
  predictor.fit(train);
  std::array<PredictedFlips, 4> out;
  const std::span<const TraceRecord> records(train);
  EXPECT_THROW(predictor.predictFlipsBlock(records.first(1),
                                           std::span(out).first(0)),
               std::invalid_argument);
  EXPECT_THROW(predictor.predictFlipsBlock(records.first(5),
                                           std::span(out).first(3)),
               std::invalid_argument);
  EXPECT_THROW(predictor.predictFlipsBlock(records.first(66),
                                           std::span(out)),
               std::invalid_argument);
}

TEST(FlatBankPersistenceTest, SaveFlatLoadFlatServesIdentically) {
  const Trace train = syntheticTrace(12, 1200, 29);
  const Trace test = syntheticTrace(12, 300, 30);
  PredictorParams params;
  params.forest.treeCount = 6;
  BitLevelPredictor predictor(12, params);
  predictor.fit(train);

  const auto path =
      (std::filesystem::temp_directory_path() / "flat_bank_persist.ffb")
          .string();
  ASSERT_TRUE(predictor.saveFlat(path).isOk());
  auto loadedOr = BitLevelPredictor::loadFlat(path);
  ASSERT_TRUE(loadedOr.isOk()) << loadedOr.status().toString();
  const BitLevelPredictor loaded = std::move(loadedOr).valueOrThrow();
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.width(), predictor.width());
  const auto evalA = predictor.evaluate(test);
  const auto evalB = loaded.evaluate(test);
  EXPECT_EQ(evalA.abper, evalB.abper);
  EXPECT_EQ(evalA.avpe, evalB.avpe);
  for (std::size_t r = 0; r + 1 < test.size(); ++r) {
    const PredictedFlips a = predictor.predictFlips(test[r], test[r + 1]);
    const PredictedFlips b = loaded.predictFlips(test[r], test[r + 1]);
    ASSERT_EQ(a.sumFlips, b.sumFlips);
    ASSERT_EQ(a.coutFlip, b.coutFlip);
  }

  // The loaded bank is the whole model: it ranks features and runs the
  // scalar reference exactly like the bank it was saved from.
  expectSameBankQueries(predictor, loaded, test);
}

TEST(FlatBankPersistenceTest, EveryAblationKindRoundTrips) {
  // The decision-tree and majority kinds are flat banks too: saveFlat ->
  // loadFlat -> evaluate serves them identically.
  const Trace train = syntheticTrace(10, 900, 41);
  const Trace test = syntheticTrace(10, 200, 42);
  const auto path =
      (std::filesystem::temp_directory_path() / "flat_bank_kinds.ffb")
          .string();
  for (const ForestParams& forest : {oisa::testing::decisionTreeParams(),
                                     oisa::testing::majorityParams()}) {
    PredictorParams params;
    params.forest = forest;
    BitLevelPredictor predictor(10, params);
    predictor.fit(train);
    ASSERT_EQ(predictor.flatView().roots.size(), 11u);  // one tree per bit
    ASSERT_TRUE(predictor.saveFlat(path).isOk());
    auto loadedOr = BitLevelPredictor::loadFlat(path);
    ASSERT_TRUE(loadedOr.isOk()) << loadedOr.status().toString();
    const BitLevelPredictor loaded = std::move(loadedOr).valueOrThrow();
    std::remove(path.c_str());
    const auto evalA = predictor.evaluate(test);
    const auto evalB = loaded.evaluate(test);
    EXPECT_EQ(evalA.abper, evalB.abper);
    EXPECT_EQ(evalA.avpe, evalB.avpe);
    EXPECT_EQ(evalA.perBitErrorRate, evalB.perBitErrorRate);
    expectBlockMatchesReference(loaded, test);
    expectSameBankQueries(predictor, loaded, test);
  }
}

TEST(FlatBankPersistenceTest, LoadFlatRejectsForeignBanks) {
  // A structurally valid envelope whose forest count does not match any
  // predictor geometry (meta0 width + 1 forests) must be refused.
  const auto forests = trainForests(3, 8, 47);
  const FlatForestBank bank = FlatForestBank::build(forests, 8);
  const auto path =
      (std::filesystem::temp_directory_path() / "flat_bank_foreign.ffb")
          .string();
  ASSERT_TRUE(oisa::ml::writeFlatBankFile(path, bank.view(), 8, 1).isOk());
  EXPECT_FALSE(BitLevelPredictor::loadFlat(path).isOk());
  std::remove(path.c_str());
}

TEST(FlatForestTest, TrainedFigureBanksMatchScalarPath) {
  // Banks trained from real collected traces of a paper design at every
  // figure CPR point: the pruned flat block path must match the scalar
  // reference walk on every evaluation pair.
  const auto lib = oisa::timing::CellLibrary::generic65();
  oisa::circuits::SynthesisOptions synth;
  synth.relaxSlack = true;
  const auto design =
      oisa::circuits::synthesize(oisa::core::makeIsa(16, 2, 0, 4), lib, synth);
  for (const double cpr : {5.0, 10.0, 15.0}) {
    const double period = oisa::experiments::overclockedPeriodNs(0.3, cpr);
    auto trainWl = oisa::experiments::makeWorkload("uniform", 32, 7);
    auto testWl = oisa::experiments::makeWorkload("uniform", 32, 8);
    const Trace train =
        oisa::experiments::collectTrace(design, period, *trainWl, 700);
    const Trace test =
        oisa::experiments::collectTrace(design, period, *testWl, 200);
    PredictorParams params;
    params.forest.treeCount = 5;
    BitLevelPredictor predictor(32, params);
    predictor.fit(train);
    ASSERT_TRUE(oisa::ml::validateFlatBank(predictor.flatView()).isOk())
        << "cpr " << cpr;
    expectBlockMatchesReference(predictor, test);
  }
}

}  // namespace
