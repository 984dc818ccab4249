// oisa_fault: random/workload-pattern fault-coverage campaigns.
//
// Drives a PPSFP engine over a stream of W-pattern blocks and tracks
// which collapsed fault classes have been detected. Detected classes are
// dropped from later blocks by default (classic fault dropping — the
// bulk of the universe falls in the first few blocks, so dropping turns
// the campaign cost from classes x blocks into roughly classes +
// hard-fault tails). The detected set is independent of dropping; only
// the work saved changes.
//
// The campaign accepts any engine width through AnyPpsfpEngine (a caller
// that wants the 64-lane reference builds it with
// makePpsfpEngine(compiled, {64, LaneArch::Portable})) and keeps its
// results byte-identical to that reference: patterns stream
// through the block in sub-block-major lane order (pattern p of a block
// sits in bit p%64 of sub-word p/64), first-detection indices are read
// off the earliest detecting sub-word, and the applied-pattern counter
// advances per 64-pattern sub-block — so CoverageResult is a pure
// function of the pattern stream, not of the engine width.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"

namespace oisa::fault {

/// Campaign controls.
struct CoverageOptions {
  std::uint64_t patterns = 1 << 14;  ///< stimuli to apply (rounded up to 64)
  std::uint64_t seed = 1;            ///< RNG seed (random-pattern campaigns)
  bool dropDetected = true;          ///< classic fault dropping
};

/// Campaign result over the collapsed universe.
struct CoverageResult {
  std::size_t universeFaults = 0;    ///< full universe size
  std::size_t collapsedClasses = 0;
  std::size_t detectedClasses = 0;
  std::uint64_t patternsApplied = 0;
  /// Per collapsed class: first pattern index whose block detected it
  /// (~0 when undetected).
  std::vector<std::uint64_t> firstDetectedAt;
  /// Per collapsed class: detected flag.
  std::vector<std::uint8_t> detected;

  [[nodiscard]] double coverage() const noexcept {
    return collapsedClasses == 0
               ? 0.0
               : static_cast<double>(detectedClasses) /
                     static_cast<double>(collapsedClasses);
  }
};

/// Fills `inputWords` (wordsPerNet words per primary input, input-major,
/// lane-major within each input) with the next block of stimuli and
/// returns how many patterns it packed (1..lanes; 0 ends the campaign
/// early). Pattern p of the block goes to bit p%64 of sub-word p/64.
using PatternBlockSource =
    std::function<std::size_t(std::span<std::uint64_t> inputWords)>;

/// Runs a campaign over `source` blocks until `options.patterns` stimuli
/// were applied, every class is detected, or the source runs dry.
[[nodiscard]] CoverageResult runCoverage(const FaultUniverse& universe,
                                         AnyPpsfpEngine& engine,
                                         const CoverageOptions& options,
                                         const PatternBlockSource& source);

/// Convenience campaign: uniform random primary-input patterns. The RNG
/// stream is drawn one 64-pattern sub-block at a time (all inputs, then
/// the next sub-block), so any width replays the 64-lane draw sequence.
[[nodiscard]] CoverageResult runRandomCoverage(const FaultUniverse& universe,
                                               AnyPpsfpEngine& engine,
                                               const CoverageOptions& options);

}  // namespace oisa::fault
