// The -mavx512f translation unit: the only object in the tree compiled
// with -mavx512f. Same rule as lane_engines_avx2.cpp, for the 512-lane
// AVX-512 variant of all three lane engines.
#if defined(__AVX512F__)

#include <functional>

#include "fault/lane_engines.h"

namespace oisa::fault::detail {

template std::unique_ptr<netlist::AnyBatchEvaluator>
makeVectorEngine<netlist::LaneArch::Avx512, netlist::AnyBatchEvaluator,
                 BatchEvaluatorAdapter>(
    std::shared_ptr<const netlist::CompiledNetlist>);

template std::unique_ptr<timing::AnyLaneSampler>
makeVectorEngine<netlist::LaneArch::Avx512, timing::AnyLaneSampler,
                 LaneSamplerAdapter>(
    std::shared_ptr<const netlist::CompiledNetlist>,
    std::reference_wrapper<const timing::DelayAnnotation>, double);

template std::unique_ptr<AnyPpsfpEngine>
makeVectorEngine<netlist::LaneArch::Avx512, AnyPpsfpEngine,
                 PpsfpEngineAdapter>(
    std::shared_ptr<const netlist::CompiledNetlist>);

}  // namespace oisa::fault::detail

#endif  // __AVX512F__
