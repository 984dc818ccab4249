// oisa_fault: width-erased PPSFP interface + factory for the runtime
// lane-width dispatcher (netlist/lane_width.h). runCoverage and the
// defect scan hold AnyPpsfpEngine so wider SIMD blocks flow through the
// fault pipelines transparently.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "fault/fault_model.h"
#include "netlist/compiled_netlist.h"
#include "netlist/lane_width.h"

namespace oisa::fault {

/// Width-erased PpsfpEngineT. Pattern spans are input-major with
/// wordsPerNet() uint64 words per primary input; detection spans hold
/// wordsPerNet() words (bit L of sub-word j = pattern 64j+L detects).
class AnyPpsfpEngine {
 public:
  virtual ~AnyPpsfpEngine() = default;

  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t wordsPerNet() const noexcept = 0;
  [[nodiscard]] virtual netlist::LaneSelection selection()
      const noexcept = 0;
  virtual void loadPatterns(std::span<const std::uint64_t> inputWords,
                            std::size_t patternCount) = 0;
  virtual void detectLanesInto(const Fault& f,
                               std::span<std::uint64_t> out) = 0;
  [[nodiscard]] virtual std::uint64_t faultsSimulated() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t gateEvaluations() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t activationSkips() const noexcept = 0;
  [[nodiscard]] virtual const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept = 0;
};

/// Builds the engine variant for `sel` (default: selectLaneWidth()).
/// Throws std::invalid_argument for a (width, arch) pair that is not one
/// of the five variants or that this build/CPU cannot run.
[[nodiscard]] std::unique_ptr<AnyPpsfpEngine> makePpsfpEngine(
    std::shared_ptr<const netlist::CompiledNetlist> compiled);
[[nodiscard]] std::unique_ptr<AnyPpsfpEngine> makePpsfpEngine(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    netlist::LaneSelection sel);

}  // namespace oisa::fault
