#include "fault/coverage.h"

#include <algorithm>
#include <bit>
#include <random>

#include "obs/metrics.h"
#include "obs/span.h"

namespace oisa::fault {

CoverageResult runCoverage(const FaultUniverse& universe,
                           AnyPpsfpEngine& engine,
                           const CoverageOptions& options,
                           const PatternBlockSource& source) {
  // Engine counters drain once per campaign at the end of this function
  // — counters only, outside the per-fault and per-word loops.
  const obs::ObsSpan span("fault.coverage", "fault", "classes",
                          universe.collapsed().size());
  const std::uint64_t faults0 = engine.faultsSimulated();
  const std::uint64_t evals0 = engine.gateEvaluations();
  const std::uint64_t skips0 = engine.activationSkips();
  const auto classes = universe.collapsed();
  const std::size_t kWords = engine.wordsPerNet();
  CoverageResult result;
  result.universeFaults = universe.all().size();
  result.collapsedClasses = classes.size();
  result.detected.assign(classes.size(), 0);
  result.firstDetectedAt.assign(classes.size(), ~std::uint64_t{0});

  std::vector<std::uint64_t> inputWords(
      universe.compiled()->inputNets().size() * kWords, 0);
  std::vector<std::uint64_t> det(kWords, 0);
  while (result.patternsApplied < options.patterns &&
         result.detectedClasses < result.collapsedClasses) {
    const std::size_t count = source(inputWords);
    if (count == 0) break;  // source exhausted
    engine.loadPatterns(inputWords, count);
    // For byte-identity with the 64-lane reference the applied-pattern
    // counter must stop at the sub-block that completed detection, not at
    // the end of the wide block: the reference campaign would have exited
    // its loop right after that 64-pattern block.
    std::size_t lastDetectWord = 0;
    for (std::size_t ci = 0; ci < classes.size(); ++ci) {
      if (options.dropDetected && result.detected[ci] != 0) continue;
      engine.detectLanesInto(classes[ci], det);
      if (result.detected[ci] != 0) continue;
      std::size_t j = 0;
      while (j < kWords && det[j] == 0) ++j;
      if (j == kWords) continue;
      result.detected[ci] = 1;
      ++result.detectedClasses;
      result.firstDetectedAt[ci] =
          result.patternsApplied + 64 * j +
          static_cast<std::uint64_t>(std::countr_zero(det[j]));
      lastDetectWord = std::max(lastDetectWord, j);
    }
    if (result.detectedClasses == result.collapsedClasses) {
      result.patternsApplied +=
          std::min<std::uint64_t>(count, 64 * (lastDetectWord + 1));
    } else {
      result.patternsApplied += count;
    }
  }
  static obs::Counter& faultsSimulated = obs::counter("fault.faults_simulated");
  static obs::Counter& gateEvals = obs::counter("fault.gate_evaluations");
  static obs::Counter& skips = obs::counter("fault.activation_skips");
  static obs::Counter& patterns = obs::counter("fault.patterns_applied");
  static obs::Counter& detected = obs::counter("fault.classes_detected");
  faultsSimulated.add(engine.faultsSimulated() - faults0);
  gateEvals.add(engine.gateEvaluations() - evals0);
  skips.add(engine.activationSkips() - skips0);
  patterns.add(result.patternsApplied);
  detected.add(result.detectedClasses);
  return result;
}

CoverageResult runRandomCoverage(const FaultUniverse& universe,
                                 AnyPpsfpEngine& engine,
                                 const CoverageOptions& options) {
  std::mt19937_64 rng(options.seed);
  std::uint64_t remaining = options.patterns;
  const std::size_t lanes = engine.lanes();
  const std::size_t kWords = engine.wordsPerNet();
  const std::size_t inputs = universe.compiled()->inputNets().size();
  const PatternBlockSource source =
      [&](std::span<std::uint64_t> inputWords) -> std::size_t {
    if (remaining == 0) return 0;
    const auto count = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, lanes));
    remaining -= count;
    // Draw sub-block-major — one fresh word per primary input, then the
    // next 64-pattern sub-block — replaying the 64-lane reference's RNG
    // sequence exactly. Sub-blocks past `count` stay zero; the engine
    // masks them out of detection.
    std::fill(inputWords.begin(), inputWords.end(), 0);
    const std::size_t blocks = (count + 63) / 64;
    for (std::size_t j = 0; j < blocks; ++j) {
      for (std::size_t i = 0; i < inputs; ++i) {
        inputWords[i * kWords + j] = rng();
      }
    }
    return count;
  };
  return runCoverage(universe, engine, options, source);
}

}  // namespace oisa::fault
