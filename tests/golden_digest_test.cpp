// Golden-digest regression tests (the ROADMAP's `.ans.sha` scheme): the
// fig7/fig8 prediction rows, fig9 error-combination rows, fault-coverage
// scan rows and a c17 random-coverage campaign are serialized to a
// canonical text form and SHA-256-digested against checked-in goldens.
// Every number is printed in hexfloat, so the digest pins the exact bit
// pattern of every double — a data-plane refactor (e.g. widening the
// 64-lane engines to 256/512 SIMD blocks) cannot silently drift an
// output without tripping one of these.
//
// The three campaign cases also checkpoint and digest the snapshot file,
// which pins the checkpoint format, each row's payload field list and
// the campaign fingerprint: a snapshot written before a change must
// still resume after it.
//
// The digests must hold at every forced lane width: CI re-runs this test
// with OISA_FORCE_LANE_WIDTH=64/256/portable/512.
//
// Regenerating after an *intentional* output change: run this test and
// copy the "actual" digest from the failure message (the canonical text
// is printed alongside to diff what moved).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "experiments/fault_scan.h"
#include "experiments/runner.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "sha256.h"
#include "timing/cell_library.h"

namespace {

using oisa::circuits::SynthesizedDesign;
using oisa::testing::sha256Hex;

// Checked-in goldens, generated from the 64-lane seed engines.
constexpr const char* kGoldenPrediction =
    "0af15bf0e7f7fefcdbcb3714cf64742d761fc476baa97f3f3ff59af85eab2bb3";
constexpr const char* kGoldenCombination =
    "e9279bd98efc200916874105bb281dc9c7e7a7a2f65cbb54a3b6c33602befb9b";
constexpr const char* kGoldenFaultScan =
    "537e3eb217f0477eb85d6b9160428a15e4473a55afdf18aa88e33bbb1064044b";
constexpr const char* kGoldenC17Coverage =
    "f33d7c3e03c65a6b2a4b46ea2b9b1b643a47eb3845b26bd1566cb03e2cbce09a";
// Checkpoint files the three campaigns above write.
constexpr const char* kGoldenPredictionCheckpoint =
    "54ee510e21e758753a58f52abd0bada96a73abe50816113a564655e77beae514";
constexpr const char* kGoldenCombinationCheckpoint =
    "2bb12b162044d8ca6c236baaf4caadee6879417ca750b29cc4f1f4666802c7e6";
constexpr const char* kGoldenFaultScanCheckpoint =
    "ddac7590542163c4d29e47bdafc227547ca168d8889b9a4ca167f2538e0e6892";

/// Exact, locale-independent double rendering (C99 %a hexfloat).
std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// A fresh checkpoint path for one campaign case.
std::string checkpointPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "oisa_golden_" + name;
  std::remove(path.c_str());
  return path;
}

/// SHA-256 of the snapshot file at `path` (removed afterwards).
std::string checkpointDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return sha256Hex(bytes.str());
}

/// Two small paper-style ISA designs: fast enough for Debug+ASan, deep
/// enough that structural + timing + defect errors are all non-trivial.
std::vector<SynthesizedDesign> goldenDesigns() {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const auto lib = oisa::timing::CellLibrary::generic65();
  std::vector<SynthesizedDesign> designs;
  designs.push_back(
      oisa::circuits::synthesize(oisa::core::makeIsa(4, 1, 1, 2, 16), lib,
                                 options));
  designs.push_back(
      oisa::circuits::synthesize(oisa::core::makeIsa(4, 2, 1, 2, 16), lib,
                                 options));
  return designs;
}

TEST(GoldenDigestTest, PredictionRowsMatchGolden) {
  const auto designs = goldenDesigns();
  oisa::experiments::PredictionOptions options;
  options.run.seed = 42;
  options.run.threads = 1;
  options.trainCycles = 1200;
  options.testCycles = 600;
  options.run.checkpoint.path = checkpointPath("prediction.ckpt");
  const double cprs[] = {5.0, 15.0};
  const auto rows =
      oisa::experiments::runPredictionEvaluation(designs, cprs, options);

  std::string text = "design,cpr,period_ns,abper,avpe,train,test\n";
  for (const auto& r : rows) {
    text += r.design + "," + hexd(r.cprPercent) + "," + hexd(r.periodNs) +
            "," + hexd(r.abper) + "," + hexd(r.avpe) + "," +
            std::to_string(r.trainCycles) + "," +
            std::to_string(r.testCycles) + "\n";
  }
  EXPECT_EQ(sha256Hex(text), kGoldenPrediction) << "canonical text:\n"
                                                << text;
  EXPECT_EQ(checkpointDigest(options.run.checkpoint.path),
            kGoldenPredictionCheckpoint);
}

TEST(GoldenDigestTest, ErrorCombinationRowsMatchGolden) {
  const auto designs = goldenDesigns();
  oisa::experiments::RunOptions options;
  options.cycles = 1200;
  options.seed = 42;
  options.threads = 1;
  options.checkpoint.path = checkpointPath("combination.ckpt");
  const double cprs[] = {5.0, 15.0};
  const auto rows =
      oisa::experiments::runErrorCombination(designs, cprs, options);

  std::string text =
      "design,cpr,period_ns,rms_struct,rms_timing,rms_joint,"
      "mean_abs_joint,struct_rate,timing_rate,cycles\n";
  for (const auto& r : rows) {
    text += r.design + "," + hexd(r.cprPercent) + "," + hexd(r.periodNs) +
            "," + hexd(r.rmsRelStruct) + "," + hexd(r.rmsRelTiming) + "," +
            hexd(r.rmsRelJoint) + "," + hexd(r.meanAbsJointArith) + "," +
            hexd(r.structErrorRate) + "," + hexd(r.timingErrorRate) + "," +
            std::to_string(r.cycles) + "\n";
  }
  EXPECT_EQ(sha256Hex(text), kGoldenCombination) << "canonical text:\n"
                                                 << text;
  EXPECT_EQ(checkpointDigest(options.checkpoint.path),
            kGoldenCombinationCheckpoint);
}

TEST(GoldenDigestTest, FaultScanRowsMatchGolden) {
  const auto designs = goldenDesigns();
  oisa::experiments::FaultScanOptions options;
  options.run.cycles = 512;
  options.run.seed = 3;
  options.run.threads = 1;
  options.cprPercent = 15.0;
  options.timedCycles = 256;
  options.timedFaults = 3;
  options.run.checkpoint.path = checkpointPath("fault_scan.ckpt");
  const auto rows = oisa::experiments::runFaultErrorScan(designs, options);

  std::string text =
      "design,universe,collapsed,detected,coverage,patterns,cpr,period_ns,"
      "rms_healthy,rms_faulty,shift,worst,timed_faults\n";
  for (const auto& r : rows) {
    text += r.design + "," + std::to_string(r.universeFaults) + "," +
            std::to_string(r.collapsedClasses) + "," +
            std::to_string(r.detectedClasses) + "," +
            hexd(r.coveragePercent) + "," + std::to_string(r.patterns) +
            "," + hexd(r.cprPercent) + "," + hexd(r.periodNs) + "," +
            hexd(r.rmsRelJointHealthy) + "," + hexd(r.rmsRelJointFaulty) +
            "," + hexd(r.eJointShift) + "," + hexd(r.worstRelJointFaulty) +
            "," + std::to_string(r.timedFaultsMeasured) + "\n";
  }
  EXPECT_EQ(sha256Hex(text), kGoldenFaultScan) << "canonical text:\n"
                                               << text;
  EXPECT_EQ(checkpointDigest(options.run.checkpoint.path),
            kGoldenFaultScanCheckpoint);
}

TEST(GoldenDigestTest, C17RandomCoverageMatchesGolden) {
  constexpr const char* kC17 = R"(
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";
  const auto compiled = oisa::netlist::CompiledNetlist::compile(
      oisa::netlist::readBenchString(kC17, "c17"));
  oisa::fault::FaultUniverse universe(compiled);
  const auto engine = oisa::fault::makePpsfpEngine(
      compiled, {64, oisa::netlist::LaneArch::Portable});
  oisa::fault::CoverageOptions options;
  options.patterns = 256;
  options.seed = 1;
  const auto result =
      oisa::fault::runRandomCoverage(universe, *engine, options);

  std::string text = std::to_string(result.universeFaults) + "," +
                     std::to_string(result.collapsedClasses) + "," +
                     std::to_string(result.detectedClasses) + "," +
                     std::to_string(result.patternsApplied) + "\n";
  for (std::size_t ci = 0; ci < result.firstDetectedAt.size(); ++ci) {
    text += std::to_string(ci) + ":" +
            std::to_string(static_cast<int>(result.detected[ci])) + ":" +
            std::to_string(result.firstDetectedAt[ci]) + "\n";
  }
  EXPECT_EQ(sha256Hex(text), kGoldenC17Coverage) << "canonical text:\n"
                                                 << text;
}

}  // namespace
