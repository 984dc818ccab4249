#include "traced.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/error_model.h"
#include "core/isa_adder.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"
#include "netlist/compiled_netlist.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "predict/bit_predictor.h"

namespace campaign_bench {

namespace ex = oisa::experiments;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` inside a benchmark span and adds its host time to `layer`.
template <typename Fn>
auto timed(TracedPass& pass, const char* layer, Fn&& fn) {
  const oisa::obs::ObsSpan span(layer, kSpanCategory);
  const Clock::time_point t0 = Clock::now();
  auto value = fn();
  pass.layerSeconds[layer] += secondsSince(t0);
  return value;
}

std::uint64_t counterValue(std::string_view name) {
  return oisa::obs::counter(name).value();
}

/// The gold probe over collected traces: IsaAdder::addTraced per record,
/// checked against the gold the collector recorded. False on a mismatch.
bool probeGold(TracedPass& pass, const oisa::core::IsaConfig& config,
               const std::vector<oisa::predict::Trace>& traces) {
  return timed(pass, "core.gold", [&] {
    const oisa::core::IsaAdder adder(config);
    std::vector<oisa::core::PathTrace> paths;
    bool same = true;
    for (const oisa::predict::Trace& trace : traces) {
      for (const oisa::predict::TraceRecord& rec : trace) {
        const oisa::core::IsaSum gold =
            adder.addTraced(rec.a, rec.b, rec.carryIn, paths);
        same = same && gold.sum == rec.gold && gold.carryOut == rec.goldCout;
      }
    }
    return same;
  });
}

/// Recomposes one runPredictionEvaluation cell (predict: train + test;
/// serve: mmap-load + test) and keeps its traces for the gold probe.
ex::PredictionRow predictionCell(
    TracedPass& pass, const Campaign& campaign,
    const oisa::circuits::SynthesizedDesign& design, double cpr,
    std::vector<oisa::predict::Trace>& traces) {
  const Sizes& sizes = campaign.sizes();
  const int width = design.config.width;
  const double period = ex::overclockedPeriodNs(0.3, cpr);
  const ex::PredictionOptions options = campaign.predictionOptions(1);
  auto collector = timed(pass, "netlist.compile", [&] {
    return std::make_unique<ex::TraceCollector>(design, period);
  });
  auto predictor = [&] {
    if (campaign.kind() == Kind::Serve) {
      return timed(pass, "predict.load", [&] {
        return oisa::predict::BitLevelPredictor::loadFlat(
                   bankPath(campaign.modelBase(), design.config.name(), cpr))
            .valueOrThrow();
      });
    }
    return oisa::predict::BitLevelPredictor(width, options.predictor);
  }();
  if (predictor.width() != width) {
    throw std::runtime_error("bank width does not match design " +
                             design.config.name());
  }
  const auto& extractor = predictor.extractor();
  if (campaign.kind() == Kind::Predict) {
    auto trainWorkload =
        ex::makeWorkload("uniform", width, campaign.seed() + 1);
    traces.push_back(timed(pass, "timing.collect", [&] {
      return collector->collect(*trainWorkload, sizes.trainCycles);
    }));
    const auto packed = timed(pass, "predict.pack", [&] {
      return extractor.packTrace(traces.back());
    });
    timed(pass, "predict.fit", [&] {
      predictor.fit(packed);
      return 0;
    });
  }
  auto testWorkload = ex::makeWorkload("uniform", width, campaign.seed() + 2);
  traces.push_back(timed(pass, "timing.collect", [&] {
    return collector->collect(*testWorkload, sizes.testCycles);
  }));
  const auto packed = timed(pass, "predict.pack", [&] {
    return extractor.packTrace(traces.back());
  });
  const auto eval = timed(pass, "predict.eval", [&] {
    return predictor.evaluate(traces.back(), packed);
  });
  ex::PredictionRow row;
  row.design = design.config.name();
  row.cprPercent = cpr;
  row.periodNs = period;
  row.abper = eval.abper;
  row.avpe = eval.avpe;
  row.trainCycles = sizes.trainCycles;
  row.testCycles = eval.cycles;
  return row;
}

/// Recomposes one runErrorCombination cell.
ex::CombinationRow combinationCell(
    TracedPass& pass, const Campaign& campaign,
    const oisa::circuits::SynthesizedDesign& design, double cpr,
    std::vector<oisa::predict::Trace>& traces) {
  const int width = design.config.width;
  const double period = ex::overclockedPeriodNs(0.3, cpr);
  auto collector = timed(pass, "netlist.compile", [&] {
    return std::make_unique<ex::TraceCollector>(design, period);
  });
  auto workload = ex::makeWorkload("uniform", width, campaign.seed());
  traces.push_back(timed(pass, "timing.collect", [&] {
    return collector->collect(*workload, campaign.sizes().cycles);
  }));
  const auto combo = timed(pass, "core.combine", [&] {
    oisa::core::ErrorCombination c;
    for (const oisa::predict::TraceRecord& rec : traces.back()) {
      c.add(oisa::core::OutputTriple{rec.diamondValue(width),
                                     rec.goldValue(width),
                                     rec.silverValue(width)});
    }
    return c;
  });
  ex::CombinationRow row;
  row.design = design.config.name();
  row.cprPercent = cpr;
  row.periodNs = period;
  row.rmsRelStruct = combo.relStruct().rms();
  row.rmsRelTiming = combo.relTiming().rms();
  row.rmsRelJoint = combo.relJoint().rms();
  row.meanAbsJointArith = combo.arithJoint().meanAbs();
  row.structErrorRate = combo.arithStruct().errorRate();
  row.timingErrorRate = combo.arithTiming().errorRate();
  row.cycles = combo.cycles();
  return row;
}

/// PPSFP coverage of one design under the scan's own pattern stream: the
/// same draws, sub-block-major, that runFaultErrorScan feeds runCoverage.
oisa::fault::CoverageResult probeCoverage(
    const oisa::circuits::SynthesizedDesign& design,
    const std::shared_ptr<const oisa::netlist::CompiledNetlist>& compiled,
    const oisa::fault::FaultUniverse& universe,
    const ex::FaultScanOptions& options) {
  const int width = design.config.width;
  const auto engine = oisa::fault::makePpsfpEngine(compiled);
  oisa::fault::CoverageOptions coverage;
  coverage.patterns = options.run.cycles;
  const auto workload =
      ex::makeWorkload(options.run.workload, width, options.run.seed);
  const std::size_t engineLanes = engine->lanes();
  const std::size_t kW = engine->wordsPerNet();
  std::array<ex::Stimulus, 64> stims{};
  std::vector<std::uint64_t> subWords(compiled->inputNets().size(), 0);
  std::uint64_t remaining = coverage.patterns;
  const oisa::fault::PatternBlockSource source =
      [&](std::span<std::uint64_t> inputWords) -> std::size_t {
    if (remaining == 0) return 0;
    const auto count = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, engineLanes));
    remaining -= count;
    std::fill(inputWords.begin(), inputWords.end(), 0);
    for (std::size_t packed = 0, j = 0; packed < count; ++j) {
      const std::size_t sub = std::min<std::size_t>(count - packed, 64);
      for (std::size_t lane = 0; lane < sub; ++lane) {
        stims[lane] = workload->next();
      }
      ex::packStimulusBlock(std::span(stims.data(), sub), width, subWords);
      for (std::size_t i = 0; i < subWords.size(); ++i) {
        inputWords[i * kW + j] = subWords[i];
      }
      packed += sub;
    }
    return count;
  };
  return oisa::fault::runCoverage(universe, *engine, coverage, source);
}

/// One defect design: the three probes, the one-design scan (the cell),
/// and the gold probe over the timed phase's records. Returns the row and
/// whether the probes agree with it.
std::pair<ex::FaultScanRow, bool> defectCell(
    TracedPass& pass, const Campaign& campaign,
    const std::vector<oisa::circuits::SynthesizedDesign>& single,
    double& cellSeconds) {
  const oisa::circuits::SynthesizedDesign& design = single.front();
  const ex::FaultScanOptions options = campaign.faultOptions(1);
  auto& seconds = pass.layerSeconds;
  const double probes0 = seconds["netlist.compile"] +
                         seconds["fault.universe"] + seconds["fault.ppsfp"];
  const auto compiled = timed(pass, "netlist.compile", [&] {
    return oisa::netlist::CompiledNetlist::compile(design.netlist);
  });
  const auto universe = timed(pass, "fault.universe", [&] {
    return std::make_unique<oisa::fault::FaultUniverse>(compiled);
  });
  const std::uint64_t gates0 = counterValue("fault.gate_evaluations");
  const std::uint64_t skips0 = counterValue("fault.activation_skips");
  const std::uint64_t faults0 = counterValue("fault.faults_simulated");
  const auto coverage = timed(pass, "fault.ppsfp", [&] {
    return probeCoverage(design, compiled, *universe, options);
  });
  pass.gateEvals += counterValue("fault.gate_evaluations") - gates0;
  pass.activationSkips += counterValue("fault.activation_skips") - skips0;
  pass.faultsSimulated += counterValue("fault.faults_simulated") - faults0;
  const double probes = seconds["netlist.compile"] +
                        seconds["fault.universe"] + seconds["fault.ppsfp"] -
                        probes0;

  ex::FaultScanRow row;
  {
    const oisa::obs::ObsSpan span("bench.cell", kSpanCategory);
    const Clock::time_point t0 = Clock::now();
    row = ex::runFaultErrorScan(single, options).front();
    cellSeconds = secondsSince(t0);
  }
  seconds["fault.timed"] += cellSeconds - probes;

  // Gold of the timed phase: one healthy and one run per sampled defect,
  // each over the measured draws that follow 64 settle draws.
  timed(pass, "core.gold", [&] {
    const oisa::core::IsaAdder adder(design.config);
    std::vector<oisa::core::PathTrace> paths;
    auto workload = ex::makeWorkload(options.run.workload,
                                     design.config.width, options.run.seed + 1);
    for (int i = 0; i < 64; ++i) (void)workload->next();
    std::vector<ex::Stimulus> measured(options.timedCycles);
    for (auto& s : measured) s = workload->next();
    std::uint64_t sink = 0;
    for (std::uint64_t run = 0; run <= row.timedFaultsMeasured; ++run) {
      for (const ex::Stimulus& s : measured) {
        sink += adder.addTraced(s.a, s.b, s.carryIn, paths).sum;
      }
    }
    return sink;
  });
  const bool agrees = row.detectedClasses == coverage.detectedClasses &&
                      row.collapsedClasses == coverage.collapsedClasses &&
                      row.patterns == coverage.patternsApplied;
  return {std::move(row), agrees};
}

struct SpanEvent {
  std::string name;
  std::string cat;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
};

/// Reads the complete ('X') events of one oisa-trace-v1 document; the
/// writer emits one event object per line.
std::vector<SpanEvent> parseSpans(const std::string& json) {
  const auto stringField = [](std::string_view line, std::string_view key) {
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos) return std::string();
    const std::size_t begin = at + key.size();
    return std::string(line.substr(begin, line.find('"', begin) - begin));
  };
  const auto numberField = [](std::string_view line,
                              std::string_view key) -> std::uint64_t {
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos) return 0;
    return std::strtoull(std::string(line.substr(at + key.size(), 24)).c_str(),
                         nullptr, 10);
  };
  std::vector<SpanEvent> events;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string_view line(json.data() + pos, end - pos);
    pos = end + 1;
    if (line.rfind("{\"name\": \"", 0) != 0) continue;
    if (line.find("\"ph\": \"X\"") == std::string_view::npos) continue;
    events.push_back({stringField(line, "{\"name\": \""),
                      stringField(line, "\"cat\": \""),
                      numberField(line, "\"ts\": "),
                      numberField(line, "\"dur\": ")});
  }
  return events;
}

/// Share of the benchmark's cell spans covered by the program's own
/// layer spans (the union of every span outside categories "bench" and
/// "grid"; "grid" holds the campaign/cell wrappers, not layers).
double internalCoverage(const std::vector<SpanEvent>& events) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> internal;
  for (const SpanEvent& e : events) {
    if (e.cat != kSpanCategory && e.cat != "grid") {
      internal.emplace_back(e.ts, e.ts + e.dur);
    }
  }
  std::sort(internal.begin(), internal.end());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const auto& iv : internal) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  std::uint64_t cellUs = 0;
  std::uint64_t coveredUs = 0;
  for (const SpanEvent& e : events) {
    if (e.cat != kSpanCategory || e.name != "bench.cell") continue;
    cellUs += e.dur;
    for (const auto& [b, f] : merged) {
      const std::uint64_t lo = std::max(b, e.ts);
      const std::uint64_t hi = std::min(f, e.ts + e.dur);
      if (hi > lo) coveredUs += hi - lo;
    }
  }
  return cellUs == 0 ? 0.0
                     : static_cast<double>(coveredUs) /
                           static_cast<double>(cellUs);
}

}  // namespace

TracedPass runTracedPass(const Campaign& campaign) {
  TracedPass pass;
  const auto& designs = campaign.designs();
  const auto& cprs = paperCprs();
  const std::uint64_t events0 = counterValue("sim.events_committed");
  const std::uint64_t evalRows0 = counterValue("predict.eval_rows");
  // Spans per cell are a handful; the ring never fills.
  oisa::obs::startTracing(std::size_t{1} << 14);

  if (campaign.kind() == Kind::Defect) {
    for (const auto& design : designs) {
      const std::vector<oisa::circuits::SynthesizedDesign> single{design};
      double cellSeconds = 0.0;
      try {
        auto [row, agrees] = defectCell(pass, campaign, single, cellSeconds);
        pass.cells.push_back(agrees ? canonical(row) : std::string());
      } catch (const std::exception&) {
        pass.cells.emplace_back();
      }
      pass.cellSeconds.push_back(cellSeconds);
    }
  } else {
    for (const auto& design : designs) {
      for (const double cpr : cprs) {
        std::vector<oisa::predict::Trace> traces;
        double cellSeconds = 0.0;
        try {
          std::string cell;
          {
            const oisa::obs::ObsSpan span("bench.cell", kSpanCategory);
            const Clock::time_point t0 = Clock::now();
            cell = campaign.kind() == Kind::Combine
                       ? canonical(combinationCell(pass, campaign, design,
                                                   cpr, traces))
                       : canonical(predictionCell(pass, campaign, design,
                                                  cpr, traces));
            cellSeconds = secondsSince(t0);
          }
          if (!probeGold(pass, design.config, traces)) cell.clear();
          pass.cells.push_back(std::move(cell));
        } catch (const std::exception&) {
          pass.cells.emplace_back();
        }
        pass.cellSeconds.push_back(cellSeconds);
      }
    }
  }

  pass.traceJson = oisa::obs::drainTraceJson();
  oisa::obs::stopTracing();
  for (const double s : pass.cellSeconds) pass.cellTotalSeconds += s;
  pass.events = counterValue("sim.events_committed") - events0;
  pass.evalRows = counterValue("predict.eval_rows") - evalRows0;
  pass.internalSpanCoverage = internalCoverage(parseSpans(pass.traceJson));
  return pass;
}

}  // namespace campaign_bench
