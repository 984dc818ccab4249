#include "ml/random_forest.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace oisa::ml {

namespace {

/// The forest pipeline, shared by the packed and reference paths so both
/// draw identical bootstrap samples from the same rng stream. `fitTree`
/// grows one tree on a row multiset; `fitLeaf` grows the single-leaf tree
/// of the constant-label short-cut.
template <typename FitTree, typename FitLeaf>
void growForest(std::vector<DecisionTree>& trees, std::size_t rowCount,
                std::size_t positiveCount, std::size_t featureCount,
                const ForestParams& params, std::uint64_t seed,
                FitTree&& fitTree, FitLeaf&& fitLeaf) {
  if (rowCount == 0) {
    throw std::invalid_argument("RandomForest::fit: empty dataset");
  }
  if (params.treeCount == 0) {
    throw std::invalid_argument("RandomForest::fit: treeCount must be > 0");
  }
  TreeParams treeParams = params.tree;
  if (treeParams.featuresPerSplit == 0) {
    treeParams.featuresPerSplit = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(featureCount))));
  }
  trees.clear();

  // Degenerate case short-cut: constant labels need a single leaf (frequent
  // for timing bits that never fail at a mild overclock).
  if (positiveCount == 0 || positiveCount == rowCount) {
    DecisionTree leaf;
    fitLeaf(leaf);
    trees.push_back(std::move(leaf));
    return;
  }

  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> rows(rowCount);
  for (std::size_t t = 0; t < params.treeCount; ++t) {
    if (params.bootstrap) {
      std::uniform_int_distribution<std::uint32_t> pick(
          0, static_cast<std::uint32_t>(rowCount - 1));
      for (std::size_t i = 0; i < rowCount; ++i) rows[i] = pick(rng);
    } else {
      std::iota(rows.begin(), rows.end(), 0u);
    }
    DecisionTree tree;
    fitTree(tree, rows, treeParams, rng);
    trees.push_back(std::move(tree));
  }
}

}  // namespace

void RandomForest::fit(const Dataset& data, const ForestParams& params,
                       std::uint64_t seed) {
  fit(data.packed(), params, seed);
}

void RandomForest::fit(const PackedView& data, const ForestParams& params,
                       std::uint64_t seed) {
  growForest(
      trees_, data.rowCount, data.positiveCount(), data.featureCount(),
      params, seed,
      [&](DecisionTree& tree, std::span<const std::uint32_t> rows,
          const TreeParams& treeParams, std::mt19937_64& rng) {
        tree.fit(data, rows, treeParams, rng);
      },
      [&](DecisionTree& leaf) {
        leaf.fit(data, TreeParams{0, 2, 1, 0}, seed);
      });
}

void RandomForest::fitReference(const Dataset& data,
                                const ForestParams& params,
                                std::uint64_t seed) {
  growForest(
      trees_, data.rowCount(), data.positiveCount(), data.featureCount(),
      params, seed,
      [&](DecisionTree& tree, std::span<const std::uint32_t> rows,
          const TreeParams& treeParams, std::mt19937_64& rng) {
        tree.fitReference(data, rows, treeParams, rng);
      },
      [&](DecisionTree& leaf) {
        leaf.fitReference(data, TreeParams{0, 2, 1, 0}, seed);
      });
}

bool RandomForest::predict(std::span<const std::uint8_t> features) const {
  return predictProbability(features) >= 0.5;
}

double RandomForest::predictProbability(
    std::span<const std::uint8_t> features) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest: predict before fit");
  }
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) {
    sum += tree.predictProbability(features);
  }
  return sum / static_cast<double>(trees_.size());
}

}  // namespace oisa::ml
