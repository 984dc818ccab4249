// oisa_ml: Random Forest classifier (bagging + feature subsampling).
//
// The paper's model of choice: "RFC alleviates overfitting by developing
// more than one decision tree and using their average result as final
// prediction". Deterministic given the seed. Training runs on the packed
// popcount substrate (fit on a Dataset or a PackedView); the seed row-scan
// pipeline is retained as fitReference() and grows *identical* trees.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/decision_tree.h"

namespace oisa::ml {

/// Forest growth controls. The paper's ablation baselines are points of
/// this space, not separate model kinds: treeCount = 1 with bootstrap off
/// and tree.featuresPerSplit = SIZE_MAX grows the node-identical tree that
/// DecisionTree::fit grows from the same seed (no rng is drawn before the
/// tree, and a full candidate draw consumes none), and adding
/// tree.maxDepth = 0 leaves one leaf of probability pos/n, the majority
/// vote (its >= 0.5 decision is exact below 2^25 training rows, where the
/// float leaf cannot round up to 0.5).
struct ForestParams {
  std::size_t treeCount = 10;
  TreeParams tree{};  ///< tree.featuresPerSplit 0 = auto (sqrt(featureCount))
  bool bootstrap = true;  ///< sample rows with replacement per tree
};

/// Random Forest of CART trees; prediction is the mean tree probability.
class RandomForest final : public BinaryClassifier {
 public:
  /// Packed popcount training (the default path). The Dataset overload
  /// delegates to the packed view; both draw the same bootstrap samples and
  /// grow the same trees as fitReference().
  void fit(const Dataset& data, const ForestParams& params,
           std::uint64_t seed = 1);
  void fit(const PackedView& data, const ForestParams& params,
           std::uint64_t seed = 1);

  /// The seed per-row-scan pipeline, retained as the differential-testing
  /// reference for fit().
  void fitReference(const Dataset& data, const ForestParams& params,
                    std::uint64_t seed = 1);

  [[nodiscard]] bool predict(
      std::span<const std::uint8_t> features) const override;
  [[nodiscard]] double predictProbability(
      std::span<const std::uint8_t> features) const override;

  [[nodiscard]] const std::vector<DecisionTree>& trees() const noexcept {
    return trees_;
  }
  [[nodiscard]] bool trained() const noexcept { return !trees_.empty(); }

 private:
  std::vector<DecisionTree> trees_;
};

}  // namespace oisa::ml
