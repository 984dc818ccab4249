// campaign_bench: closed-loop campaign benchmark for the oisa libraries.
//
//   campaign_bench --workload=predict|serve|combine|defect --seed=N
//                  --seconds=S --trace=0|1 [--trace-out=FILE]
//                  [--model-dir=DIR] [--csv-out=FILE]
//                  [--train-cycles=N] [--test-cycles=N] [--trees=T]
//                  [--depth=D] [--cycles=N] [--timed-cycles=N]
//                  [--timed-faults=N]
//
// --trace=0 measures the end-to-end metrics with tracing off: set-up time,
// records per host second of whole campaigns at nproc threads and at 1
// thread (interleaved, one campaign at a time, medians), peak RSS and the
// share of cells whose rows pass the row check. --trace=1 adds the traced
// 1-thread per-layer pass (traced.h) and reports the per-layer metrics.
// Every timing is host time; simulated statistics are checked, never
// reported as performance. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when
// any row check failed and 2 when the benchmark refuses to run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "campaigns.h"
#include "experiments/cli.h"
#include "netlist/lane_width.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "traced.h"

namespace cb = campaign_bench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Row check: every cell of every campaign must equal the reference
/// campaign's cell; an empty cell (thrown, or failed a probe) fails.
struct RowCheck {
  std::vector<std::string> reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::vector<std::string>& cells) {
    attempted += cells.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].empty() || i >= reference.size() ||
          cells[i] != reference[i]) {
        ++failed;
      }
    }
  }
};

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  oisa::obs::appendJsonEscaped(out, s);
  return out + "\"";
}

/// Runs interleaved rounds of set-up, a 1-thread campaign and an nproc
/// campaign until `seconds` have passed (at least three rounds) and
/// appends the end-to-end timing metrics. Spreading the set-ups over the
/// whole run, next to the campaigns, exposes them to the same host noise.
void measureEndToEnd(cb::Campaign& campaign, unsigned nproc, double seconds,
                     std::vector<double> setups, RowCheck& check,
                     std::vector<Metric>& metrics) {
  std::vector<double> rps1;
  std::vector<double> rpsN;
  const Clock::time_point t0 = Clock::now();
  for (int round = 0; round < 3 || secondsSince(t0) < seconds; ++round) {
    setups.push_back(campaign.setUp(nproc));
    for (const unsigned threads : {1u, nproc}) {
      const cb::CampaignResult r = campaign.run(threads);
      check.add(r.cells);
      if (r.records > 0) {
        (threads == 1 ? rps1 : rpsN)
            .push_back(static_cast<double>(r.records) / r.seconds);
      }
    }
  }
  metrics.push_back({"setup_s", median(setups), "s"});
  metrics.push_back({"rps", median(rpsN), "records/s"});
  metrics.push_back({"rps_1t", median(rps1), "records/s"});
}

/// Runs untraced 1-thread and nproc campaigns plus the traced pass until
/// `seconds` have passed (at least once) and appends the per-layer
/// metrics: medians over the passes.
void measureLayers(const cb::Campaign& campaign, unsigned nproc,
                   double seconds, const std::string& traceOut,
                   RowCheck& check, std::vector<Metric>& metrics) {
  const bool defect = campaign.kind() == cb::Kind::Defect;
  static const char* const kLayers[] = {
      "netlist.compile", "timing.collect", "core.combine", "predict.pack",
      "predict.fit",     "predict.load",   "predict.eval", "fault.universe",
      "fault.ppsfp",     "fault.timed"};
  std::map<std::string, std::pair<std::string, std::vector<double>>> samples;
  const auto sample = [&](const std::string& name, double v,
                          const char* unit) {
    auto& [sampleUnit, values] = samples[name];
    sampleUnit = unit;
    values.push_back(v);
  };
  oisa::obs::Histogram& queueWait =
      oisa::obs::histogram("grid.queue_wait_us");
  std::string lastTrace;
  const Clock::time_point t0 = Clock::now();
  do {
    const Clock::time_point synth0 = Clock::now();
    (void)cb::Campaign::synthesize();
    sample("circuits.synth_s", secondsSince(synth0), "s");
    const cb::CampaignResult r1 = campaign.run(1);
    check.add(r1.cells);
    const std::uint64_t waits0 = queueWait.count();
    const std::uint64_t waitUs0 = queueWait.sum();
    const cb::CampaignResult rN = campaign.run(nproc);
    check.add(rN.cells);
    const cb::TracedPass pass = cb::runTracedPass(campaign);
    check.add(pass.cells);

    const auto layer = [&](const char* name) {
      const auto it = pass.layerSeconds.find(name);
      return it == pass.layerSeconds.end() ? 0.0 : it->second;
    };
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const double total = pass.cellTotalSeconds;
    for (const char* name : kLayers) {
      sample(std::string(name) + "_s", layer(name), "s");
      sample(std::string(name) + "_share", ratio(layer(name), total),
             "fraction");
    }
    const double wheelAndGold =
        layer(defect ? "fault.timed" : "timing.collect");
    sample("core.gold_s", layer("core.gold"), "s");
    sample("core.gold_share", ratio(layer("core.gold"), wheelAndGold),
           "fraction");
    sample("timing.events", count(pass.events), "count");
    sample("timing.ns_per_event",
           ratio(layer("timing.collect") * 1e9, count(pass.events)), "ns");
    sample("predict.eval_rows", count(pass.evalRows), "count");
    sample("fault.gate_evals", count(pass.gateEvals), "count");
    sample("fault.activation_skip_ratio",
           ratio(count(pass.activationSkips), count(pass.faultsSimulated)),
           "ratio");
    const std::vector<double>& cells = pass.cellSeconds;
    sample("experiments.cell_mean_ms",
           ratio(total * 1e3, static_cast<double>(cells.size())), "ms");
    sample("experiments.cell_max_ms",
           cells.empty() ? 0.0
                         : 1e3 * *std::max_element(cells.begin(), cells.end()),
           "ms");
    sample("experiments.grid_speedup",
           ratio(count(rN.records) / rN.seconds,
                 count(r1.records) / r1.seconds),
           "ratio");
    sample("experiments.queue_wait_us",
           ratio(count(queueWait.sum() - waitUs0),
                 count(queueWait.count() - waits0)),
           "us");
    sample("obs.trace_overhead", ratio(total, r1.seconds), "ratio");
    sample("obs.internal_span_coverage", pass.internalSpanCoverage,
           "fraction");
    lastTrace = pass.traceJson;
  } while (secondsSince(t0) < seconds);

  if (!traceOut.empty()) {
    const std::filesystem::path path(traceOut);
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream os(path, std::ios::binary);
    os << lastTrace;
    if (!os) throw std::runtime_error("cannot write trace " + traceOut);
  }

  for (const auto& [name, sampled] : samples) {
    metrics.push_back({name, median(sampled.second), sampled.first});
  }
}

int run(int argc, char** argv) {
  const oisa::experiments::ArgParser args(argc, argv);
#ifndef NDEBUG
  std::cerr << "campaign_bench: refusing to report from a build without "
               "NDEBUG (build type "
            << CAMPAIGN_BENCH_BUILD_TYPE << ")\n";
  return 2;
#endif
  if (std::getenv(oisa::netlist::kLaneWidthEnvVar) != nullptr) {
    std::cerr << "campaign_bench: refusing to report with "
              << oisa::netlist::kLaneWidthEnvVar
              << " set (results must use the lane width the host selects)\n";
    return 2;
  }
  const cb::Kind kind = cb::parseKind(args.getString("workload", ""));
  const std::uint64_t seed = args.getU64("seed", cb::kReferenceSeed);
  const double seconds = args.getDouble("seconds", 10.0);
  const bool traced = args.getBool("trace", false);
  const cb::Sizes sizes = cb::Sizes::fromArgs(kind, args);
  unsigned nproc = std::thread::hardware_concurrency();
  if (nproc == 0) nproc = 1;
  const std::string modelBase =
      args.getString("model-dir", ".bench_build/models") + "/bank";

  cb::Campaign campaign(kind, sizes, seed, modelBase);
  std::vector<Metric> metrics;
  RowCheck check;
  const double firstSetUp = campaign.setUp(nproc);

  // Warm-up campaign: fills caches and lazy set-up, and its rows are the
  // reference every later campaign and the traced pass must equal.
  const cb::CampaignResult reference = campaign.run(nproc);
  check.reference = reference.cells;
  const std::string digest = cb::rowsDigest(reference.cells);
  const std::string expected = cb::referenceDigest(kind);
  std::string referenceCheck = "skipped";
  if (seed == cb::kReferenceSeed && sizes.defaults && !expected.empty()) {
    referenceCheck = digest == expected ? "pass" : "fail";
    if (digest != expected) {
      std::cerr << "row digest " << digest << " != stored " << expected
                << "\n";
      check.reference.assign(reference.cells.size(), std::string());
    }
  }
  check.add(reference.cells);
  const std::string csvOut = args.getString("csv-out", "");
  if (!csvOut.empty()) {
    std::ofstream os(csvOut, std::ios::binary);
    os << reference.csv;
    if (!os) throw std::runtime_error("cannot write " + csvOut);
  }

  if (traced) {
    measureLayers(campaign, nproc, seconds, args.getString("trace-out", ""),
                  check, metrics);
  } else {
    measureEndToEnd(campaign, nproc, seconds, {firstSetUp}, check, metrics);
    metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    metrics.push_back(
        {"cell_pass_frac",
         ratio(static_cast<double>(check.attempted - check.failed),
               static_cast<double>(check.attempted)),
         "fraction"});
  }

  const bool correct = check.failed == 0 && referenceCheck != "fail";
  const double failedFrac =
      ratio(static_cast<double>(check.failed),
            static_cast<double>(check.attempted));
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-32s %.6g %s\n", "failed_frac", failedFrac, "fraction");
  const oisa::netlist::LaneSelection lanes = oisa::netlist::selectLaneWidth();
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"git_sha\": %s, "
      "\"lane_selection\": %s, \"threads\": [1, %u], \"nproc\": %u, "
      "\"build_type\": %s, \"rows_sha256\": %s, \"reference_check\": %s}\n",
      jsonString(cb::kindName(kind)).c_str(),
      static_cast<unsigned long long>(seed),
      jsonString(oisa::obs::gitSha()).c_str(),
      jsonString(oisa::netlist::laneSelectionName(lanes)).c_str(), nproc,
      nproc, jsonString(CAMPAIGN_BENCH_BUILD_TYPE).c_str(),
      jsonString(digest).c_str(), jsonString(referenceCheck).c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(check.attempted);
  json += ", \"failed\": " + std::to_string(check.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += jsonString(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) +
            ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 2;
  }
}
