// oisa_ml: Random Forest classifier (bagging + feature subsampling).
//
// The paper's model of choice: "RFC alleviates overfitting by developing
// more than one decision tree and using their average result as final
// prediction". Deterministic given the seed. Training runs on the packed
// popcount substrate (fit on a Dataset or a PackedView); the seed row-scan
// pipeline is retained as fitReference() and grows *identical* trees.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ml/decision_tree.h"

namespace oisa::ml {

/// Forest growth controls.
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

  /// predictProbability without the trained() validation, for hot loops
  /// that validated once at entry. Precondition: trained().
  [[nodiscard]] double probabilityUnchecked(
      std::span<const std::uint8_t> features) const noexcept;

  /// 64-lane batched forest inference: featureWords[f] carries feature f of
  /// lane L in bit L. Each lane's probability is accumulated tree by tree
  /// in the scalar summation order, so lane results equal
  /// predict()/predictProbability() bit for bit.
  [[nodiscard]] std::uint64_t predictBatch(
      std::span<const std::uint64_t> featureWords,
      std::span<double> probabilities) const override;

  [[nodiscard]] const std::vector<DecisionTree>& trees() const noexcept {
    return trees_;
  }
  [[nodiscard]] bool trained() const noexcept { return !trees_.empty(); }

 private:
  std::vector<DecisionTree> trees_;
};

/// Baseline that always predicts the training majority class — the paper's
/// implicit "no model" comparison point for ablations.
class MajorityClassifier final : public BinaryClassifier {
 public:
  void fit(const Dataset& data);
  void fit(const PackedView& data);

  [[nodiscard]] bool predict(
      std::span<const std::uint8_t>) const override {
    return majority_;
  }
  [[nodiscard]] double predictProbability(
      std::span<const std::uint8_t>) const override {
    return probability_;
  }
  [[nodiscard]] std::uint64_t predictBatch(
      std::span<const std::uint64_t>,
      std::span<double> probabilities) const override {
    if (probabilities.size() < 64) {
      throw std::invalid_argument(
          "MajorityClassifier::predictBatch: need 64 probability slots");
    }
    std::fill_n(probabilities.data(), 64, probability_);
    return majority_ ? ~std::uint64_t{0} : 0;
  }

 private:
  bool majority_ = false;
  double probability_ = 0.0;
};

}  // namespace oisa::ml
