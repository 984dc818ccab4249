// The -mavx2 translation unit: the only object in the tree compiled with
// -mavx2. It instantiates the 256-lane AVX2 variant of all three lane
// engines and nothing else. Portable widths carry `extern template`
// declarations in the engine headers, so including them here cannot
// re-emit baseline code with the wider ISA. The argument lists match the
// ones lane_engines.cpp passes to the dispatcher.
#if defined(__AVX2__)

#include <functional>

#include "fault/lane_engines.h"

namespace oisa::fault::detail {

template std::unique_ptr<netlist::AnyBatchEvaluator>
makeVectorEngine<netlist::LaneArch::Avx2, netlist::AnyBatchEvaluator,
                 BatchEvaluatorAdapter>(
    std::shared_ptr<const netlist::CompiledNetlist>);

template std::unique_ptr<timing::AnyLaneSampler>
makeVectorEngine<netlist::LaneArch::Avx2, timing::AnyLaneSampler,
                 LaneSamplerAdapter>(
    std::shared_ptr<const netlist::CompiledNetlist>,
    std::reference_wrapper<const timing::DelayAnnotation>, double);

template std::unique_ptr<AnyPpsfpEngine>
makeVectorEngine<netlist::LaneArch::Avx2, AnyPpsfpEngine,
                 PpsfpEngineAdapter>(
    std::shared_ptr<const netlist::CompiledNetlist>);

}  // namespace oisa::fault::detail

#endif  // __AVX2__
