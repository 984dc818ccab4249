// campaign_bench: the four benchmark workloads as whole campaigns.
//
// Every workload runs the paper grid (12 synthesized ISA designs, CPR
// {5, 10, 15}%, 0.3 ns sign-off, slack relaxation on) under a uniform
// stimulus seeded by the benchmark's --seed. A campaign is one call of the
// product's public `experiments` entry point; its rows are rendered twice:
// as canonical full-precision text per cell (the identity check) and as
// the CSV the matching CLI writes (the parity check).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "experiments/cli.h"
#include "experiments/fault_scan.h"
#include "experiments/runner.h"

namespace campaign_bench {

enum class Kind { Predict, Serve, Combine, Defect };

/// Parses a workload name ("predict", "serve", "combine", "defect");
/// throws std::invalid_argument on anything else.
[[nodiscard]] Kind parseKind(const std::string& name);
[[nodiscard]] const char* kindName(Kind kind);

/// Per-cell campaign sizes. Flag names and defaults are those of the CLI
/// each workload mirrors (fig7_abper, fig9_error_combination,
/// fault_coverage), except `serve`, whose held-out trace is longer.
struct Sizes {
  std::uint64_t trainCycles = 6000;  ///< predict, serve set-up
  std::uint64_t testCycles = 3000;   ///< predict; serve default 12000
  std::size_t trees = 10;
  int depth = 10;
  std::uint64_t cycles = 20000;      ///< combine; defect default 16384
  std::uint64_t timedCycles = 8192;  ///< defect timed phase
  std::size_t timedFaults = 8;       ///< defect sampled stem defects
  /// True when every size is the workload default (reference digests are
  /// stored for default sizes only).
  bool defaults = true;

  [[nodiscard]] static Sizes fromArgs(Kind kind,
                                      const oisa::experiments::ArgParser& args);
};

/// One campaign's outcome.
struct CampaignResult {
  /// Canonical text of each cell's row; every cell is empty when the grid
  /// threw (a thrown grid returns no rows, so none can be checked).
  std::vector<std::string> cells;
  /// The CLI-format CSV of the rows ("" when the grid threw).
  std::string csv;
  /// Simulated adder records the campaign processed (the rps unit).
  std::uint64_t records = 0;
  double seconds = 0.0;  ///< host wall time of the entry-point call
};

/// The fixed inputs of one workload: designs, sizes, seed.
class Campaign {
 public:
  Campaign(Kind kind, Sizes sizes, std::uint64_t seed, std::string modelBase);

  /// The twelve paper designs, synthesized as the CLIs do by default
  /// (slack relaxation on).
  [[nodiscard]] static std::vector<oisa::circuits::SynthesizedDesign>
  synthesize();

  /// Synthesizes the twelve paper designs and, for `serve`, trains and
  /// saves every cell's flat bank under the model base. Returns the host
  /// seconds it took. Replaces the designs of any earlier set-up.
  double setUp(unsigned threads);

  /// One closed-loop campaign through the product entry point.
  [[nodiscard]] CampaignResult run(unsigned threads) const;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const Sizes& sizes() const noexcept { return sizes_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const std::string& modelBase() const noexcept {
    return modelBase_;
  }
  [[nodiscard]] const std::vector<oisa::circuits::SynthesizedDesign>&
  designs() const noexcept {
    return designs_;
  }
  [[nodiscard]] std::size_t cellCount() const noexcept;

  /// Options exactly as the mirrored CLI builds them from its flags.
  [[nodiscard]] oisa::experiments::PredictionOptions predictionOptions(
      unsigned threads) const;
  [[nodiscard]] oisa::experiments::RunOptions combineOptions(
      unsigned threads) const;
  [[nodiscard]] oisa::experiments::FaultScanOptions faultOptions(
      unsigned threads) const;

 private:
  Kind kind_;
  Sizes sizes_;
  std::uint64_t seed_;
  std::string modelBase_;
  std::vector<oisa::circuits::SynthesizedDesign> designs_;
};

/// The paper's CPR points, in grid order.
[[nodiscard]] const std::vector<double>& paperCprs();

/// Canonical row text: every field, doubles to 17 significant digits.
[[nodiscard]] std::string canonical(const oisa::experiments::PredictionRow& r);
[[nodiscard]] std::string canonical(
    const oisa::experiments::CombinationRow& r);
[[nodiscard]] std::string canonical(const oisa::experiments::FaultScanRow& r);

/// Flat-bank path of one serve cell, as PredictionOptions::modelIn names it.
[[nodiscard]] std::string bankPath(const std::string& base,
                                   const std::string& design, double cpr);

/// SHA-256 (hex) of the cells' canonical text, one line per cell.
[[nodiscard]] std::string rowsDigest(const std::vector<std::string>& cells);

/// Stored digest of the default-size rows at the reference seed.
inline constexpr std::uint64_t kReferenceSeed = 1;
[[nodiscard]] const char* referenceDigest(Kind kind);

}  // namespace campaign_bench
