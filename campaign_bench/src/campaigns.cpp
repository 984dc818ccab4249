#include "campaigns.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "experiments/report.h"
#include "sha256.h"
#include "timing/cell_library.h"

namespace campaign_bench {

namespace ex = oisa::experiments;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Appends `,value` with every significant digit a double carries.
void field(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, ",%.17g", v);
  out += buf;
}

void field(std::string& out, std::uint64_t v) {
  out += ',';
  out += std::to_string(v);
}

std::string csvOf(const ex::Table& table) {
  std::ostringstream os;
  table.writeCsv(os);
  return os.str();
}

// The three CSV layouts below are the ones fig7_abper (also with
// --model-in), fig9_error_combination and fault_coverage write with
// --csv; the parity test diffs them byte for byte against the CLIs.

std::string predictionCsv(
    const std::vector<oisa::circuits::SynthesizedDesign>& designs,
    const std::vector<ex::PredictionRow>& rows) {
  ex::Table table({"design", "0.255ns(15%)", "0.27ns(10%)", "0.285ns(5%)"});
  for (const auto& design : designs) {
    std::string cells[3];
    for (const auto& row : rows) {
      if (row.design != design.config.name()) continue;
      const std::string value =
          ex::formatSci(ex::displayFloor(row.abper), 3);
      if (row.cprPercent == 15.0) cells[0] = value;
      if (row.cprPercent == 10.0) cells[1] = value;
      if (row.cprPercent == 5.0) cells[2] = value;
    }
    table.addRow({design.config.name(), cells[0], cells[1], cells[2]});
  }
  return csvOf(table);
}

std::string combinationCsv(const std::vector<ex::CombinationRow>& rows) {
  ex::Table csv({"design", "cpr_percent", "period_ns", "rms_rel_struct",
                 "rms_rel_timing", "rms_rel_joint"});
  for (const auto& row : rows) {
    csv.addRow({row.design, ex::formatFixed(row.cprPercent, 1),
                ex::formatFixed(row.periodNs, 4),
                ex::formatSci(row.rmsRelStruct, 6),
                ex::formatSci(row.rmsRelTiming, 6),
                ex::formatSci(row.rmsRelJoint, 6)});
  }
  return csvOf(csv);
}

std::string faultCsv(const std::vector<ex::FaultScanRow>& rows) {
  ex::Table csv(
      {"design", "universe_faults", "collapsed_classes", "detected_classes",
       "coverage_percent", "patterns", "cpr_percent", "period_ns",
       "rms_rel_joint_healthy", "rms_rel_joint_faulty", "e_joint_shift",
       "worst_rel_joint_faulty", "timed_faults"});
  for (const auto& row : rows) {
    csv.addRow({row.design, std::to_string(row.universeFaults),
                std::to_string(row.collapsedClasses),
                std::to_string(row.detectedClasses),
                ex::formatFixed(row.coveragePercent, 3),
                std::to_string(row.patterns),
                ex::formatFixed(row.cprPercent, 1),
                ex::formatFixed(row.periodNs, 4),
                ex::formatSci(row.rmsRelJointHealthy, 6),
                ex::formatSci(row.rmsRelJointFaulty, 6),
                ex::formatSci(row.eJointShift, 6),
                ex::formatSci(row.worstRelJointFaulty, 6),
                std::to_string(row.timedFaultsMeasured)});
  }
  return csvOf(csv);
}

template <typename Row>
std::vector<std::string> canonicalCells(const std::vector<Row>& rows) {
  std::vector<std::string> cells;
  cells.reserve(rows.size());
  for (const Row& row : rows) cells.push_back(canonical(row));
  return cells;
}

}  // namespace

Kind parseKind(const std::string& name) {
  if (name == "predict") return Kind::Predict;
  if (name == "serve") return Kind::Serve;
  if (name == "combine") return Kind::Combine;
  if (name == "defect") return Kind::Defect;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (predict, serve, combine, defect)");
}

const char* kindName(Kind kind) {
  switch (kind) {
    case Kind::Predict: return "predict";
    case Kind::Serve: return "serve";
    case Kind::Combine: return "combine";
    case Kind::Defect: return "defect";
  }
  return "?";
}

Sizes Sizes::fromArgs(Kind kind, const ex::ArgParser& args) {
  Sizes s;
  if (kind == Kind::Serve) s.testCycles = 12000;
  if (kind == Kind::Defect) s.cycles = 16384;
  for (const char* key : {"train-cycles", "test-cycles", "trees", "depth",
                          "cycles", "timed-cycles", "timed-faults"}) {
    if (args.has(key)) s.defaults = false;
  }
  s.trainCycles = args.getPositiveU64("train-cycles", s.trainCycles);
  s.testCycles = args.getPositiveU64("test-cycles", s.testCycles);
  s.trees = static_cast<std::size_t>(args.getPositiveU64("trees", s.trees));
  s.depth = static_cast<int>(
      args.getPositiveU64("depth", static_cast<std::uint64_t>(s.depth)));
  s.cycles = args.getPositiveU64("cycles", s.cycles);
  s.timedCycles = args.getPositiveU64("timed-cycles", s.timedCycles);
  s.timedFaults =
      static_cast<std::size_t>(args.getU64("timed-faults", s.timedFaults));
  return s;
}

const std::vector<double>& paperCprs() {
  static const std::vector<double> cprs = {5.0, 10.0, 15.0};
  return cprs;
}

Campaign::Campaign(Kind kind, Sizes sizes, std::uint64_t seed,
                   std::string modelBase)
    : kind_(kind),
      sizes_(sizes),
      seed_(seed),
      modelBase_(std::move(modelBase)) {}

std::size_t Campaign::cellCount() const noexcept {
  return kind_ == Kind::Defect ? designs_.size()
                               : designs_.size() * paperCprs().size();
}

ex::PredictionOptions Campaign::predictionOptions(unsigned threads) const {
  ex::PredictionOptions options;
  options.trainCycles = sizes_.trainCycles;
  options.testCycles = sizes_.testCycles;
  options.run.seed = seed_;
  options.run.threads = threads;
  options.predictor.forest.treeCount = sizes_.trees;
  options.predictor.forest.tree.maxDepth = sizes_.depth;
  if (kind_ == Kind::Serve) options.modelIn = modelBase_;
  return options;
}

ex::RunOptions Campaign::combineOptions(unsigned threads) const {
  ex::RunOptions options;
  options.cycles = sizes_.cycles;
  options.seed = seed_;
  options.threads = threads;
  return options;
}

ex::FaultScanOptions Campaign::faultOptions(unsigned threads) const {
  ex::FaultScanOptions options;
  options.run.cycles = sizes_.cycles;
  options.run.seed = seed_;
  options.run.threads = threads;
  options.timedCycles = sizes_.timedCycles;
  options.timedFaults = sizes_.timedFaults;
  return options;
}

std::vector<oisa::circuits::SynthesizedDesign> Campaign::synthesize() {
  oisa::circuits::SynthesisOptions synthesis;
  synthesis.relaxSlack = true;
  return oisa::circuits::synthesizePaperDesigns(
      oisa::timing::CellLibrary::generic65(), synthesis);
}

double Campaign::setUp(unsigned threads) {
  const Clock::time_point t0 = Clock::now();
  designs_ = synthesize();
  if (kind_ == Kind::Serve) {
    // The banks fig7_abper --model-out would write at these sizes; the
    // held-out evaluation riding along is kept minimal.
    std::filesystem::create_directories(
        std::filesystem::path(modelBase_).parent_path());
    ex::PredictionOptions options = predictionOptions(threads);
    options.modelIn.clear();
    options.modelOut = modelBase_;
    options.testCycles = 64;
    (void)ex::runPredictionEvaluation(designs_, paperCprs(), options);
  }
  return secondsSince(t0);
}

CampaignResult Campaign::run(unsigned threads) const {
  CampaignResult result;
  const Clock::time_point t0 = Clock::now();
  try {
    switch (kind_) {
      case Kind::Predict:
      case Kind::Serve: {
        const auto rows = ex::runPredictionEvaluation(
            designs_, paperCprs(), predictionOptions(threads));
        result.seconds = secondsSince(t0);
        const std::uint64_t perCell =
            sizes_.testCycles +
            (kind_ == Kind::Predict ? sizes_.trainCycles : 0);
        result.records = perCell * rows.size();
        result.cells = canonicalCells(rows);
        result.csv = predictionCsv(designs_, rows);
        break;
      }
      case Kind::Combine: {
        const auto rows = ex::runErrorCombination(designs_, paperCprs(),
                                                  combineOptions(threads));
        result.seconds = secondsSince(t0);
        result.records = sizes_.cycles * rows.size();
        result.cells = canonicalCells(rows);
        result.csv = combinationCsv(rows);
        break;
      }
      case Kind::Defect: {
        const auto rows =
            ex::runFaultErrorScan(designs_, faultOptions(threads));
        result.seconds = secondsSince(t0);
        for (const auto& row : rows) {
          result.records +=
              row.patterns + sizes_.timedCycles * (1 + row.timedFaultsMeasured);
        }
        result.cells = canonicalCells(rows);
        result.csv = faultCsv(rows);
        break;
      }
    }
  } catch (const std::exception&) {
    result.seconds = secondsSince(t0);
    result.cells.assign(cellCount(), std::string());
    result.records = 0;
    result.csv.clear();
  }
  return result;
}

std::string canonical(const ex::PredictionRow& r) {
  std::string out = r.design;
  field(out, r.cprPercent);
  field(out, r.periodNs);
  field(out, r.abper);
  field(out, r.avpe);
  field(out, r.trainCycles);
  field(out, r.testCycles);
  return out;
}

std::string canonical(const ex::CombinationRow& r) {
  std::string out = r.design;
  field(out, r.cprPercent);
  field(out, r.periodNs);
  field(out, r.rmsRelStruct);
  field(out, r.rmsRelTiming);
  field(out, r.rmsRelJoint);
  field(out, r.meanAbsJointArith);
  field(out, r.structErrorRate);
  field(out, r.timingErrorRate);
  field(out, r.cycles);
  return out;
}

std::string canonical(const ex::FaultScanRow& r) {
  std::string out = r.design;
  field(out, r.universeFaults);
  field(out, r.collapsedClasses);
  field(out, r.detectedClasses);
  field(out, r.coveragePercent);
  field(out, r.patterns);
  field(out, r.cprPercent);
  field(out, r.periodNs);
  field(out, r.rmsRelJointHealthy);
  field(out, r.rmsRelJointFaulty);
  field(out, r.eJointShift);
  field(out, r.worstRelJointFaulty);
  field(out, r.timedFaultsMeasured);
  return out;
}

std::string bankPath(const std::string& base, const std::string& design,
                     double cpr) {
  // Same stream formatting as experiments' own bank naming (5.0 -> "5").
  std::ostringstream os;
  os << base << '.' << design << ".cpr" << cpr << ".ffb";
  return os.str();
}

std::string rowsDigest(const std::vector<std::string>& cells) {
  std::string text;
  for (const std::string& cell : cells) {
    text += cell;
    text += '\n';
  }
  return oisa::testing::sha256Hex(text);
}

const char* referenceDigest(Kind kind) {
  // Default sizes, seed kReferenceSeed. Rows are identical at every lane
  // width and thread count, so one digest holds on every host.
  switch (kind) {
    case Kind::Predict:
      return "d2ea774b944e80f471023c6209f0d48938f4f821ffcfec764b146518dabb5a03";
    case Kind::Serve:
      return "9ba82b6bc24099e979ba2bfdcd7240aa78a376faf43e41f7cdeb53b4e829b56d";
    case Kind::Combine:
      return "8ae29672003c908190d09da953fd350a44b50187f6dfa330c82735bfeb082e33";
    case Kind::Defect:
      return "961b20d9110129b219cdccd6abccb60e4b66b5bd73bb529d7de9fb53bdef4ae5";
  }
  return "";
}

}  // namespace campaign_bench
