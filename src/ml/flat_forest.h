// oisa_ml: flat, mmap-able forest banks — the serving-grade inference
// substrate.
//
// A trained RandomForest is a vector of DecisionTree objects, each owning
// its own node vector: three pointer hops per tree before the first node
// is touched, and nothing about the layout survives serialization without
// per-node parsing. FlatForestBank flattens a whole *bank* of forests
// (the bit-level predictor's 33 per-output-bit forests) into one
// structure-of-arrays arena:
//
//   feature[i]  int16   split feature of node i (-1 = leaf)
//   left[i]     uint32  arena-absolute child when the feature is 0
//   right[i]    uint32  arena-absolute child when the feature is 1
//   prob[i]     float   P(positive) at node i (meaningful at leaves)
//
// plus a forest-major table of tree-root offsets. Children are always
// appended after their parent (the growers' invariant, revalidated at
// every trust boundary), so the arena is trivially acyclic and a walk
// always terminates. The arrays are exactly what the binary model
// envelope v2 (serialize.h) writes, so a saved bank loads by mmap with
// zero per-node work: validate the header and CRC, then cast.
//
// This is the only inference engine: every predictor kind (forest,
// single tree, majority baseline) is served from a flat bank. The scalar
// walk (probability) takes the pointer forests' branches and sums leaves
// tree by tree, bit-identical to RandomForest::predictProbability; the
// 64-lane masked walk (predictWord, an explicit-stack traversal that
// splits each node's lanes by the feature word) adds each lane's leaves
// in that same tree order, so its decisions equal the scalar walk's.
//
// The masked walk prunes: a lane stops walking trees as soon as its
// `mean >= 0.5` decision is settled. Every bank carries two derived
// (never persisted) bound tables, built once by deriveFlatBankBounds
// when the bank is built or loaded:
//
//   suffixMax[t]  double  sum of the per-tree maximum leaf probabilities
//                         over trees t..last of t's forest
//   thresholds[f]         per forest: `positive` = s*, the smallest
//                         double with s*/treeCount >= 0.5, and `negative`
//                         = s* shrunk by the rounding margin below
//
// Decision rule, after the lane's in-order partial sum P over trees
// 0..t (S = suffixMax[t+1], the r remaining trees, u = 2^-53):
//   * P >= s*  -> positive. Leaves are >= 0 and rounded addition is
//     monotone, so the final sum F >= P >= s*; and since rounded
//     division by the tree count is monotone, F/count >= 0.5 exactly
//     when F >= s*.
//   * fl(P + S) < negative -> negative. Each of the r remaining rounded
//     additions of non-negative terms inflates by at most (1+u), and
//     S and fl(P + S) each deflate by at most (1-u) per rounding, so
//     F <= fl(P + S) / (1-u)^(2r+1) <= fl(P + S) / (1 - (2T+1)u) for
//     a forest of T trees. `negative` is s* (1 - (2T+4)u) formed with
//     two roundings, so negative <= s* (1 - (2T+2)u) and F < s*.
// A forest whose suffixMax[0] already fails the negative test returns 0
// without touching a node (the all-negative constant-label banks), and
// the lanes still open walk the next tree under their mask. Leaves
// outside [0, 1] would void the argument, so validateFlatBank rejects
// them at every trust boundary.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"
#include "ml/random_forest.h"

namespace oisa::ml {

/// Per-forest decision thresholds on the in-order leaf-probability sum
/// (see the decision rule above).
struct ForestThresholds {
  double positive = 0.0;  ///< s*: sum >= s*  <=>  sum/treeCount >= 0.5
  double negative = 0.0;  ///< upper bound below s* that proves a lane negative
};

/// Non-owning structure-of-arrays view over a whole bank arena. Spans
/// point either at a FlatForestBank's vectors or straight into an mmap-ed
/// model file (MappedForestBank); the two derived bound tables point at
/// the owner's FlatBankBounds.
struct FlatBankView {
  std::span<const std::int16_t> feature;
  std::span<const std::uint32_t> left;
  std::span<const std::uint32_t> right;
  std::span<const float> prob;
  /// All tree roots, forest-major (arena-absolute node indices).
  std::span<const std::uint32_t> roots;
  /// forestCount()+1 offsets into `roots`; forest f owns
  /// roots[forestBegin[f] .. forestBegin[f+1]).
  std::span<const std::uint32_t> forestBegin;
  /// Exclusive upper bound on split-feature indices (row length the bank
  /// was trained on).
  std::uint32_t featureCount = 0;
  /// Derived, one per tree (parallel to `roots`): the suffix sums of the
  /// per-tree maximum leaf probabilities within the tree's forest.
  std::span<const double> suffixMax;
  /// Derived, one per forest.
  std::span<const ForestThresholds> thresholds;

  [[nodiscard]] std::size_t forestCount() const noexcept {
    return forestBegin.empty() ? 0 : forestBegin.size() - 1;
  }
  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return feature.size();
  }
};

/// Owning storage of a bank's derived bound tables.
struct FlatBankBounds {
  std::vector<double> suffixMax;
  std::vector<ForestThresholds> thresholds;

  /// Points `view`'s derived spans at this storage.
  void attachTo(FlatBankView& view) const noexcept {
    view.suffixMax = suffixMax;
    view.thresholds = thresholds;
  }
};

/// Computes the derived bound tables of a bank that passed
/// validateFlatBank: one reverse linear scan for the per-node maximum
/// reachable leaf (children follow parents, so it stays linear even on
/// DAG-shaped arenas), then per-forest suffix sums and thresholds.
[[nodiscard]] FlatBankBounds deriveFlatBankBounds(const FlatBankView& bank);

/// One forest of a flat bank: the arena spans plus this forest's slice of
/// the root and bound tables. Cheap to construct per call; inference-only.
/// Holds the view by value (it is only spans), so constructing from a
/// temporary `bank.view()` is safe — the underlying arena must outlive
/// the forest.
class FlatForest {
 public:
  /// Tree walks of predictWord calls, summed by the caller: `walked`
  /// counts lane-masked traversals of one tree for one 64-lane word,
  /// `pruned` the trees skipped because every lane was already decided.
  struct WalkCounts {
    std::uint64_t walked = 0;
    std::uint64_t pruned = 0;
  };

  FlatForest(const FlatBankView& bank, std::size_t forest) noexcept
      : bank_(bank),
        roots_(bank.roots.subspan(
            bank.forestBegin[forest],
            bank.forestBegin[forest + 1] - bank.forestBegin[forest])),
        suffixMax_(bank.suffixMax.subspan(bank.forestBegin[forest],
                                          roots_.size())),
        thresholds_(bank.thresholds[forest]) {}

  [[nodiscard]] std::size_t treeCount() const noexcept {
    return roots_.size();
  }

  /// Mean leaf probability over the trees — the scalar forest walk on
  /// flat arrays, branch-for-branch RandomForest::predictProbability.
  /// Precondition: treeCount() > 0.
  [[nodiscard]] double probability(
      std::span<const std::uint8_t> features) const noexcept;

  [[nodiscard]] bool predict(
      std::span<const std::uint8_t> features) const noexcept {
    return probability(features) >= 0.5;
  }

  /// 64-lane pruned forest walk: featureWords[f] carries feature f of
  /// lane L in bit L. Returns the mask of lanes whose mean leaf
  /// probability is >= 0.5, bit for bit the decision of the full in-order
  /// sum (probability()), while walking each tree only for the lanes the
  /// decision rule above has not yet settled.
  /// `sums` is caller scratch for 64 doubles; its contents afterwards are
  /// unspecified. Adds this call's tree walks to `counts`.
  /// Allocation-free. Precondition: treeCount() > 0 and the view carries
  /// its derived bounds.
  [[nodiscard]] std::uint64_t predictWord(
      std::span<const std::uint64_t> featureWords, double* sums,
      WalkCounts& counts) const noexcept;

 private:
  void accumulateTreeLanes(std::uint32_t root, std::uint64_t mask,
                           std::span<const std::uint64_t> featureWords,
                           double* sums) const noexcept;

  FlatBankView bank_;
  std::span<const std::uint32_t> roots_;
  std::span<const double> suffixMax_;
  ForestThresholds thresholds_;
};

/// Owning flat bank: builds the arena from trained pointer forests.
class FlatForestBank {
 public:
  FlatForestBank() = default;

  /// Flattens `forests` (all trained, all over rows of `featureCount`
  /// features) into one arena. Tree and node order are preserved, so the
  /// result is node-for-node the concatenation of the inputs with child
  /// offsets rebased to the arena. Throws std::invalid_argument on an
  /// untrained forest or an out-of-range split feature.
  [[nodiscard]] static FlatForestBank build(
      std::span<const RandomForest> forests, std::uint32_t featureCount);

  /// The arena plus its derived bounds (computed by build()).
  [[nodiscard]] FlatBankView view() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return forestBegin_.empty(); }

 private:
  std::vector<std::int16_t> feature_;
  std::vector<std::uint32_t> left_;
  std::vector<std::uint32_t> right_;
  std::vector<float> prob_;
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint32_t> forestBegin_;
  std::uint32_t featureCount_ = 0;
  FlatBankBounds bounds_;
};

/// Structural validation of a (possibly just-cast) bank view: offset
/// table shape, root/child bounds, split features within featureCount,
/// the children-follow-parent ordering that guarantees acyclic walks, and
/// leaf probabilities within [0, 1] (no NaN) as the pruning proof needs.
/// One linear scan, no allocation. Returns Corruption with a located
/// diagnostic. The derived bound spans are not inspected.
[[nodiscard]] core::Status validateFlatBank(const FlatBankView& bank);

}  // namespace oisa::ml
