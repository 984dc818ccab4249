// oisa_ml: CART decision tree for binary features (Gini impurity).
//
// The building block of the paper's Random Forest Classification: each tree
// "learns a set of decision rules based on the pattern of input and their
// possible outcomes". Nodes are stored in a flat vector — no pointer
// chasing, trivially serializable.
//
// Training runs on the packed column-major substrate: every candidate
// split's counts come from popcount(featureWord & rowPlane) instead of
// per-row byte loads, with bootstrap multiplicities carried as bit-planes.
// The seed row-scan trainer is retained as fitReference() — the golden
// reference the packed trainer must match *node for node* (the
// wheel-vs-heap differential pattern applied to training).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "ml/classifier.h"
#include "ml/dataset.h"

namespace oisa::ml {

/// Depth the flat-bank lane-mask walk (FlatForest::predictWord) keeps on
/// its fixed explicit stack; a deeper tree spills into recursion.
/// Command-line --depth flags are bounded by it.
inline constexpr std::size_t kStackedTreeDepth = 64;

/// Tree growth controls.
struct TreeParams {
  int maxDepth = 12;
  std::size_t minSamplesSplit = 4;  ///< below this a node becomes a leaf
  std::size_t minSamplesLeaf = 1;   ///< both split sides must keep this many
  /// Features examined per split: 0 = all (plain CART); forests pass
  /// ~sqrt(featureCount) for decorrelation.
  std::size_t featuresPerSplit = 0;
};

/// CART binary decision tree over binary features.
class DecisionTree final : public BinaryClassifier {
 public:
  /// Grows a tree on `rows` (indices into `data`, duplicates allowed —
  /// bootstrap samples carry multiplicity); `rng` drives feature
  /// subsampling when params.featuresPerSplit > 0. This is the packed
  /// popcount trainer; it produces node arrays identical to fitReference()
  /// for the same inputs and rng state.
  void fit(const PackedView& data, std::span<const std::uint32_t> rows,
           const TreeParams& params, std::mt19937_64& rng);

  /// Grows on the whole packed dataset.
  void fit(const PackedView& data, const TreeParams& params,
           std::uint64_t seed = 1);

  /// Dataset conveniences (delegate to the packed trainer via
  /// Dataset::packed()).
  void fit(const Dataset& data, std::span<const std::uint32_t> rows,
           const TreeParams& params, std::mt19937_64& rng);
  void fit(const Dataset& data, const TreeParams& params,
           std::uint64_t seed = 1);

  /// The seed per-row-scan trainer, retained as the differential-testing
  /// reference for the packed fit() paths.
  void fitReference(const Dataset& data, std::span<const std::uint32_t> rows,
                    const TreeParams& params, std::mt19937_64& rng);
  void fitReference(const Dataset& data, const TreeParams& params,
                    std::uint64_t seed = 1);

  [[nodiscard]] bool predict(
      std::span<const std::uint8_t> features) const override;
  [[nodiscard]] double predictProbability(
      std::span<const std::uint8_t> features) const override;

  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] int depth() const noexcept;
  [[nodiscard]] bool trained() const noexcept { return !nodes_.empty(); }

  /// Serialization hooks (text format; see serialize.h).
  struct Node {
    std::int32_t feature = -1;   ///< -1 for a leaf
    std::uint32_t left = 0;      ///< child when feature value == 0
    std::uint32_t right = 0;     ///< child when feature value == 1
    float probability = 0.0f;    ///< P(positive) at this node
  };
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }

 private:
  class CandidateSampler;
  struct PackedSlot;
  struct PackedGrowContext;

  std::uint32_t grow(const Dataset& data, std::vector<std::uint32_t>& rows,
                     int depth, const TreeParams& params,
                     std::mt19937_64& rng, CandidateSampler& sampler);
  std::uint32_t growPacked(PackedGrowContext& ctx, std::size_t slot,
                           std::size_t n, std::size_t pos, int depth);

  std::vector<Node> nodes_;
};

}  // namespace oisa::ml
