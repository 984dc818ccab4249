// oisa_fault: the adapters behind the width-erased lane-engine interfaces
// (netlist::AnyBatchEvaluator, timing::AnyLaneSampler, AnyPpsfpEngine).
//
// One adapter template per engine wraps the engine instantiated at a
// LaneBlock. lane_engines.cpp holds the one runtime dispatcher that maps a
// LaneSelection to the adapter for its block, and defines all three
// factories (makeBatchEvaluator, timing::makeLaneSampler, makePpsfpEngine):
// oisa_fault is the lowest library that links all three engines.
//
// The intrinsic variants are instantiated only in lane_engines_avx2.cpp and
// lane_engines_avx512.cpp, the tree's only objects compiled with -mavx2 /
// -mavx512f. The dispatcher is baseline code and reaches them through
// makeVectorEngine, after the CPU check.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "fault/ppsfp.h"
#include "fault/ppsfp_dispatch.h"
#include "netlist/batch_evaluator.h"
#include "netlist/lane_width.h"
#include "timing/lane_dispatch.h"
#include "timing/lane_sim.h"

namespace oisa::fault::detail {

template <class Block>
class BatchEvaluatorAdapter final : public netlist::AnyBatchEvaluator {
 public:
  explicit BatchEvaluatorAdapter(
      std::shared_ptr<const netlist::CompiledNetlist> compiled)
      : impl_(std::move(compiled)) {}

  [[nodiscard]] std::size_t lanes() const noexcept override {
    return Block::kBits;
  }
  [[nodiscard]] std::size_t wordsPerNet() const noexcept override {
    return Block::kWords;
  }
  [[nodiscard]] netlist::LaneSelection selection() const noexcept override {
    return {Block::kBits, Block::kArch};
  }
  void evaluateInto(std::span<const std::uint64_t> inputWords,
                    std::vector<std::uint64_t>& values) const override {
    impl_.evaluateInto(inputWords, values);
  }
  void evaluateOutputsInto(std::span<const std::uint64_t> inputWords,
                           std::vector<std::uint64_t>& out) const override {
    out = impl_.evaluateOutputs(inputWords);
  }
  [[nodiscard]] const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept override {
    return impl_.compiled();
  }

 private:
  netlist::BatchEvaluatorT<Block> impl_;
};

template <class Block>
class LaneSimulatorAdapter final : public timing::AnyLaneSimulator {
 public:
  explicit LaneSimulatorAdapter(timing::LaneTimedSimulatorT<Block>& sim)
      : sim_(sim) {}

  [[nodiscard]] std::size_t lanes() const noexcept override {
    return Block::kBits;
  }
  [[nodiscard]] std::size_t wordsPerNet() const noexcept override {
    return Block::kWords;
  }
  void applyInputs(std::span<const std::uint64_t> inputWords) override {
    sim_.applyInputs(inputWords);
  }
  void advancePs(timing::TimePs deltaPs) override { sim_.advancePs(deltaPs); }
  timing::TimePs settlePs() override { return sim_.settlePs(); }
  void sampleOutputsInto(std::vector<std::uint64_t>& out) const override {
    sim_.sampleOutputsInto(out);
  }
  void reset() override { sim_.reset(); }
  void forceNet(netlist::NetId net, std::uint64_t laneMask,
                std::uint64_t bits) override {
    sim_.forceNet(net, laneMask, bits);
  }
  void clearNetForces() override { sim_.clearNetForces(); }
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept override {
    return sim_.eventsProcessed();
  }
  [[nodiscard]] std::uint64_t laneTransitionsCommitted()
      const noexcept override {
    return sim_.laneTransitionsCommitted();
  }
  [[nodiscard]] const std::vector<std::uint64_t>& netWords()
      const noexcept override {
    return sim_.netWords();
  }
  [[nodiscard]] const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept override {
    return sim_.compiled();
  }

 private:
  timing::LaneTimedSimulatorT<Block>& sim_;
};

template <class Block>
class LaneSamplerAdapter final : public timing::AnyLaneSampler {
 public:
  LaneSamplerAdapter(std::shared_ptr<const netlist::CompiledNetlist> compiled,
                     const timing::DelayAnnotation& delays, double periodNs)
      : impl_(std::move(compiled), delays, periodNs),
        simAdapter_(impl_.simulator()) {}

  [[nodiscard]] netlist::LaneSelection selection() const noexcept override {
    return {Block::kBits, Block::kArch};
  }
  [[nodiscard]] std::size_t lanes() const noexcept override {
    return Block::kBits;
  }
  [[nodiscard]] std::size_t wordsPerNet() const noexcept override {
    return Block::kWords;
  }
  void initialize(std::span<const std::uint64_t> inputWords) override {
    impl_.initialize(inputWords);
  }
  void stepInto(std::span<const std::uint64_t> inputWords,
                std::vector<std::uint64_t>& out) override {
    impl_.stepInto(inputWords, out);
  }
  [[nodiscard]] timing::TimePs periodPs() const noexcept override {
    return impl_.periodPs();
  }
  [[nodiscard]] timing::AnyLaneSimulator& simulator() noexcept override {
    return simAdapter_;
  }

 private:
  timing::LaneClockedSamplerT<Block> impl_;
  LaneSimulatorAdapter<Block> simAdapter_;
};

template <class Block>
class PpsfpEngineAdapter final : public AnyPpsfpEngine {
 public:
  explicit PpsfpEngineAdapter(
      std::shared_ptr<const netlist::CompiledNetlist> compiled)
      : impl_(std::move(compiled)) {}

  [[nodiscard]] std::size_t lanes() const noexcept override {
    return Block::kBits;
  }
  [[nodiscard]] std::size_t wordsPerNet() const noexcept override {
    return Block::kWords;
  }
  [[nodiscard]] netlist::LaneSelection selection() const noexcept override {
    return {Block::kBits, Block::kArch};
  }
  void loadPatterns(std::span<const std::uint64_t> inputWords,
                    std::size_t patternCount) override {
    impl_.loadPatterns(inputWords, patternCount);
  }
  void detectLanesInto(const Fault& f,
                       std::span<std::uint64_t> out) override {
    impl_.detectLanesInto(f, out);
  }
  [[nodiscard]] std::uint64_t faultsSimulated() const noexcept override {
    return impl_.faultsSimulated();
  }
  [[nodiscard]] std::uint64_t gateEvaluations() const noexcept override {
    return impl_.gateEvaluations();
  }
  [[nodiscard]] std::uint64_t activationSkips() const noexcept override {
    return impl_.activationSkips();
  }
  [[nodiscard]] const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept override {
    return impl_.compiled();
  }

 private:
  PpsfpEngineT<Block> impl_;
};

/// Builds Adapter<Block> for the one intrinsic block of `Arch` (256 lanes
/// for Avx2, 512 for Avx512). The dispatcher sees only this declaration;
/// the definition below exists only under the matching ISA flags, and each
/// ISA translation unit explicitly instantiates it for all three engines.
template <netlist::LaneArch Arch, class Any, template <class> class Adapter,
          class... Args>
[[nodiscard]] std::unique_ptr<Any> makeVectorEngine(Args... args);

#if defined(__AVX2__) || defined(__AVX512F__)
template <netlist::LaneArch Arch, class Any, template <class> class Adapter,
          class... Args>
std::unique_ptr<Any> makeVectorEngine(Args... args) {
  constexpr std::size_t kWidth = Arch == netlist::LaneArch::Avx2 ? 256 : 512;
  return std::make_unique<Adapter<netlist::LaneBlock<kWidth, Arch>>>(
      std::move(args)...);
}
#endif

}  // namespace oisa::fault::detail
