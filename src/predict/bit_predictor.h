// oisa_predict: the paper's bit-level timing-error prediction model.
//
// One binary classifier per output bit (32 sum bits + carry-out for the
// 32-bit adders) predicts whether that bit is timing-erroneous at a given
// overclocked period, from {x[t], x[t-1], yRTL_n[t-1], yRTL_n[t]}. The
// model never emits arithmetic values directly: it predicts a timing-class
// vector (bit-flip positions) and deduces the predicted y_silver from
// y_gold (Sec. IV-B).
//
// Every model kind is one flat bank. The paper's random forest, the
// single decision tree and the majority baseline differ only in their
// ml::ForestParams (a tree is a 1-tree forest without bootstrap, the
// majority vote a depth-0 one; see ml/random_forest.h), so fit() trains
// every per-bit classifier with ml::RandomForest::fit and keeps nothing
// but the ml::FlatForestBank it flattens them into (structure-of-arrays
// node arena, ml/flat_forest.h). fit() extracts the shared
// operand/transition columns once per trace (only the two yRTL_n columns
// differ per bit) and trains with the popcount CART trainer.
//
// Every inference walks the flat arrays. evaluate() sweeps the test trace
// 64 cycles at a time, so ABPER reduces to popcounts of
// prediction-vs-label words. predictFlipsBlock scores up to 64 record
// pairs per call with zero allocation: one packBlock column extraction
// shared by all output bits, one pruned lane-masked flat walk per bit,
// one 64x64 transpose back to per-lane flip masks (evaluate() gathers its
// AVPE flips with the same transpose). The pruned walk stops walking a
// lane once its `mean >= 0.5` decision is settled (decision rule and
// soundness bound in ml/flat_forest.h), so every prediction is
// bit-identical to the full in-order sum; a bank whose leaves cannot
// reach the threshold costs no walk at all. Both paths count their walks
// and skips as predict.tree_walks / predict.tree_walks_pruned. Banks
// persist as the binary flat envelope v2 (saveFlat/loadFlat,
// ml/serialize.h), which mmaps straight into the inference arrays, so a
// loaded bank serves, ranks features and runs the scalar reference
// exactly like the bank it was saved from.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "ml/flat_forest.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "predict/features.h"
#include "predict/trace.h"

namespace oisa::predict {

/// Training controls.
struct PredictorParams {
  ml::ForestParams forest{};  ///< per-bit classifier (every ablation kind)
  bool includeOutputBits = true;  ///< feature ablation switch
  std::uint64_t seed = 1;
};

/// Prediction for one cycle: flip mask over sum bits plus carry-out flip.
struct PredictedFlips {
  std::uint64_t sumFlips = 0;  ///< bit n set = sum bit n predicted erroneous
  bool coutFlip = false;

  [[nodiscard]] std::uint64_t predictedSilver(
      std::uint64_t gold) const noexcept {
    return gold ^ sumFlips;
  }
};

/// Evaluation result over a test trace.
struct PredictorEvaluation {
  double abper = 0.0;  ///< average bit-level prediction error rate (eq. 1)
  double avpe = 0.0;   ///< average value-level predictive error (eq. 4)
  std::uint64_t cycles = 0;
  std::uint64_t avpeSkipped = 0;  ///< cycles with real y_silver == 0
  /// Per-bit misprediction rates (LSB-first, carry-out last).
  std::vector<double> perBitErrorRate;
};

/// Per-output-bit timing-error classifier bank.
class BitLevelPredictor {
 public:
  /// `width` — adder width (output bits = width + 1 including carry-out).
  explicit BitLevelPredictor(int width, const PredictorParams& params = {});

  /// Trains every per-bit classifier on consecutive record pairs of the
  /// training trace (records 1..n-1 each paired with their predecessor).
  /// The trace is packed once; all width+1 per-bit datasets are views over
  /// the shared matrix.
  void fit(const Trace& trainTrace);

  /// Trains directly from pre-packed bit columns (the lane trace
  /// collector's native output — see experiments::TraceCollector::
  /// collectPacked), skipping the per-call packing pass. `packed` must
  /// have been produced by an extractor configured like this bank's
  /// (same width and output-bit ablation).
  void fit(const PackedTraceFeatures& packed);

  /// Predicts the timing-class vector for the cycle `current` given the
  /// preceding record. Thin wrapper over predictFlipsBlock (a one-lane
  /// block); still allocation-free.
  [[nodiscard]] PredictedFlips predictFlips(const TraceRecord& previous,
                                            const TraceRecord& current) const;

  /// The batch-64 serving hot path: predicts the consecutive record pairs
  /// (records[r], records[r+1]), r = 0 .. records.size()-2, writing
  /// out[r]. Requires 2..65 records and out.size() == records.size()-1
  /// (the final block of a window is naturally ragged). Allocation-free:
  /// the shared operand columns are packed once for the whole block
  /// (FeatureExtractor::packBlock) and each output bit's classifier walks
  /// its flat forest once under lane masks. Lane-for-lane identical to
  /// calling predictFlips per pair.
  void predictFlipsBlock(std::span<const TraceRecord> records,
                         std::span<PredictedFlips> out) const;

  /// The scalar reference path — per-record byte-feature extraction and
  /// one scalar flat walk (ml::FlatForest::probability) per output bit —
  /// kept as the differential baseline for bench/micro_predict and the
  /// block-equivalence tests. Works on fitted and loadFlat()-ed banks.
  [[nodiscard]] PredictedFlips predictFlipsReference(
      const TraceRecord& previous, const TraceRecord& current) const;

  /// Runs the model over a test trace and computes ABPER / AVPE via the
  /// 64-lane batched sweep (bit-identical to the per-cycle scalar path).
  [[nodiscard]] PredictorEvaluation evaluate(const Trace& testTrace) const;

  /// Like evaluate(testTrace) but consuming the trace's pre-packed
  /// columns (`packed` must be the packing of `testTrace` by an extractor
  /// configured like this bank's); the trace itself is only read for the
  /// value-level (AVPE) arithmetic.
  [[nodiscard]] PredictorEvaluation evaluate(
      const Trace& testTrace, const PackedTraceFeatures& packed) const;

  [[nodiscard]] int width() const noexcept { return extractor_.width(); }
  [[nodiscard]] const FeatureExtractor& extractor() const noexcept {
    return extractor_;
  }
  [[nodiscard]] bool trained() const noexcept {
    return !flatBank_.empty() || !mappedBank_.empty();
  }

  /// Aggregate feature importance across all per-bit classifiers of the
  /// bank (ml::featureImportance over flatView(); all-zero for depth-0
  /// banks and before training). Normalized to sum 1, and identical on a
  /// loadFlat()-ed bank.
  [[nodiscard]] std::vector<double> featureImportance() const;

  /// Persists the flat bank as binary envelope v2 (serialize.h), the
  /// serving/design-cache format: width and feature configuration ride in
  /// the header meta words, the node arrays are the file body.
  /// InvalidInput unless trained; IoError when the file cannot be
  /// written.
  [[nodiscard]] core::Status saveFlat(const std::string& path) const;

  /// Loads a saveFlat() file by mmap (one read fallback): header + CRC +
  /// structural validation, zero per-node parsing. The result serves
  /// every query (predictFlips/predictFlipsBlock/evaluate,
  /// predictFlipsReference, featureImportance) straight off the mapped
  /// arrays, with the same results as the bank that was saved.
  [[nodiscard]] static core::StatusOr<BitLevelPredictor> loadFlat(
      const std::string& path);

  /// The flat inference arrays (valid while this predictor lives).
  /// Precondition: trained().
  [[nodiscard]] ml::FlatBankView flatView() const noexcept {
    return mappedBank_.empty() ? flatBank_.view() : mappedBank_.view();
  }

 private:
  /// Checks that `packed` matches this bank's extractor configuration.
  void validatePacked(const PackedTraceFeatures& packed) const;

  PredictorParams params_;
  FeatureExtractor extractor_;
  // The bank, one forest per output bit: exactly one of these is
  // non-empty once trained (flattened by fit, or mmap-ed by loadFlat).
  // Views are computed on demand, so copies/moves stay safe.
  ml::FlatForestBank flatBank_;
  ml::MappedForestBank mappedBank_;
};

}  // namespace oisa::predict
