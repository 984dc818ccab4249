#include "fault/lane_engines.h"

#include <functional>
#include <stdexcept>
#include <string>

namespace oisa::fault {

namespace {

using netlist::LaneArch;
using netlist::LaneBlock;
using netlist::LaneSelection;

/// The one lane-width dispatch: builds Adapter<Block> for the block `sel`
/// names, passing `args` to its constructor. Only the five real variants
/// exist: 64/256/512 portable, 256 Avx2 and 512 Avx512. Any other pair,
/// or a vector variant this build/CPU cannot run, throws
/// std::invalid_argument naming `who`.
template <class Any, template <class> class Adapter, class... Args>
std::unique_ptr<Any> dispatchLaneWidth(const char* who, LaneSelection sel,
                                       Args... args) {
  if (sel.arch != LaneArch::Portable &&
      !netlist::cpuSupportsLaneArch(sel.arch)) {
    throw std::invalid_argument(std::string(who) + ": variant " +
                                netlist::laneSelectionName(sel) +
                                " is not runnable on this build/CPU");
  }
  switch (sel.arch) {
    case LaneArch::Portable:
      if (sel.width == 64) {
        return std::make_unique<Adapter<LaneBlock<64>>>(std::move(args)...);
      }
      if (sel.width == 256) {
        return std::make_unique<Adapter<LaneBlock<256>>>(std::move(args)...);
      }
      if (sel.width == 512) {
        return std::make_unique<Adapter<LaneBlock<512>>>(std::move(args)...);
      }
      break;
    case LaneArch::Avx2:
#if defined(OISA_HAVE_AVX2)
      if (sel.width == 256) {
        return detail::makeVectorEngine<LaneArch::Avx2, Any, Adapter>(
            std::move(args)...);
      }
#endif
      break;
    case LaneArch::Avx512:
#if defined(OISA_HAVE_AVX512)
      if (sel.width == 512) {
        return detail::makeVectorEngine<LaneArch::Avx512, Any, Adapter>(
            std::move(args)...);
      }
#endif
      break;
  }
  throw std::invalid_argument(std::string(who) + ": unsupported variant " +
                              netlist::laneSelectionName(sel));
}

}  // namespace

std::unique_ptr<AnyPpsfpEngine> makePpsfpEngine(
    std::shared_ptr<const netlist::CompiledNetlist> compiled) {
  return makePpsfpEngine(std::move(compiled), netlist::selectLaneWidth());
}

std::unique_ptr<AnyPpsfpEngine> makePpsfpEngine(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    LaneSelection sel) {
  return dispatchLaneWidth<AnyPpsfpEngine, detail::PpsfpEngineAdapter>(
      "makePpsfpEngine", sel, std::move(compiled));
}

}  // namespace oisa::fault

namespace oisa::netlist {

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluator(
    std::shared_ptr<const CompiledNetlist> compiled) {
  return makeBatchEvaluator(std::move(compiled), selectLaneWidth());
}

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluator(
    std::shared_ptr<const CompiledNetlist> compiled, LaneSelection sel) {
  return fault::dispatchLaneWidth<AnyBatchEvaluator,
                                  fault::detail::BatchEvaluatorAdapter>(
      "makeBatchEvaluator", sel, std::move(compiled));
}

}  // namespace oisa::netlist

namespace oisa::timing {

std::unique_ptr<AnyLaneSampler> makeLaneSampler(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    const DelayAnnotation& delays, double periodNs) {
  return makeLaneSampler(std::move(compiled), delays, periodNs,
                         netlist::selectLaneWidth());
}

// The delays ride as a reference_wrapper so the dispatcher's by-value
// arguments never copy the annotation.
std::unique_ptr<AnyLaneSampler> makeLaneSampler(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    const DelayAnnotation& delays, double periodNs,
    netlist::LaneSelection sel) {
  return fault::dispatchLaneWidth<AnyLaneSampler,
                                  fault::detail::LaneSamplerAdapter>(
      "makeLaneSampler", sel, std::move(compiled), std::cref(delays),
      periodNs);
}

}  // namespace oisa::timing
