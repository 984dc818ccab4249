// oisa_ml: common interface of binary classifiers.
#pragma once

#include <cstdint>
#include <span>

namespace oisa::ml {

/// A trained binary classifier over binary feature vectors.
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  /// Predicted class for one feature vector.
  [[nodiscard]] virtual bool predict(
      std::span<const std::uint8_t> features) const = 0;

  /// Predicted probability of the positive class in [0, 1].
  [[nodiscard]] virtual double predictProbability(
      std::span<const std::uint8_t> features) const = 0;
};

}  // namespace oisa::ml
