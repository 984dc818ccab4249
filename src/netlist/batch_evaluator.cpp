#include "netlist/batch_evaluator.h"

#include <stdexcept>

namespace oisa::netlist {

namespace detail {

std::shared_ptr<const CompiledNetlist> requireAcyclicBatch(
    std::shared_ptr<const CompiledNetlist> compiled) {
  if (!compiled || !compiled->acyclic()) {
    throw std::runtime_error(
        "BatchEvaluator: netlist has a combinational cycle");
  }
  return compiled;
}

}  // namespace detail

// The reference width plus the portable wide fallbacks used by the runtime
// dispatcher on machines without the matching vector ISA. The intrinsic
// widths are instantiated only in the two ISA TUs
// (fault/lane_engines_avx2.cpp / fault/lane_engines_avx512.cpp).
template class BatchEvaluatorT<LaneBlock<64>>;
template class BatchEvaluatorT<LaneBlock<256>>;
template class BatchEvaluatorT<LaneBlock<512>>;

}  // namespace oisa::netlist
