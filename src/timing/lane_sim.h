// oisa_timing: word-parallel (W-lane) timed event simulation.
//
// LaneTimedSimulatorT is the timed counterpart of netlist::BatchEvaluatorT:
// it simulates W independent instances ("lanes") of one annotated netlist
// at once. Every net holds W/64 64-bit value words (bit L of sub-word j =
// lane 64j+L's value), an event is (timePs, net) carrying the freshly
// recomputed W-lane output block, and a gate schedules fanout only when
// *any* lane changes. Because all lanes share the netlist and its
// quantized delays, transition times coincide across lanes and one event
// covers every lane that toggles at that (time, net) — the denser the
// activity, the closer the engine gets to W scalar simulations for the
// price of one.
//
// Slot-level evaluation: committing an event (or an input change, or a
// forceNet clamp) only marks the net's readers in a per-gate dirty list.
// Once every event of a time slot is committed, each dirty gate is
// evaluated once on the slot-end values, deduplicated against its last
// scheduled block and pushed at t + delay. Zero-delay pushes land back in
// the same slot, so a slot drains until both it and the dirty list are
// empty. Why this cannot change a sampled value: a gate has one delay, so
// the events on its output net in slot τ all come from its evaluations in
// slot τ − d; the last of those already sees the slot-end inputs, and the
// last write wins. Every slot-end net value is therefore the one a
// per-event engine reaches, and slot-end values are all that sampling and
// settlePs observe — only glitches *inside* a slot (several coincident
// input changes reaching one gate) are no longer committed. Coincident
// changes grow with the lane count, so the collapse saves the most on
// the widest blocks.
//
// The template parameter is a netlist::LaneBlock; the original 64-lane
// engine is the `LaneTimedSimulator` alias and stays the canonical
// reference (it keeps its uint64-word API via `requires` clauses). Wider
// widths are proven bit-exact against it by slicing blocks into 64-lane
// sub-runs — see tests/lane_width_test.cpp.
//
// Per-lane semantics versus the scalar TimedSimulator: a lane's sampled
// outputs, settle behavior and every slot-end net value equal a scalar run
// fed that lane's input stream (asserted by tests/lane_sim_test.cpp on
// random netlists and all paper design points). The scalar engine still
// commits same-slot glitches, so event and transition *counts* are lower
// here. When a gate re-evaluates because some lane's input changed, a
// quiet lane's recomputed bit equals the value it already scheduled — its
// inputs are unchanged since its own last event — so the extra commit is
// a per-lane no-op.
//
// All lanes advance on one shared time wheel and cursor: clock edges are
// common instants, and the strictly-before-edge latch semantics of the
// scalar engine hold lane for lane (LaneClockedSampler mirrors
// ClockedSampler). Structure comes from the shared
// netlist::CompiledNetlist, so scalar and lane engines over one design
// share a single compile.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/compiled_netlist.h"
#include "netlist/lane_block.h"
#include "netlist/netlist.h"
#include "timing/delay_annotation.h"

namespace oisa::timing {

/// W-lane integer-time event-driven simulator over one netlist.
template <class Block>
class LaneTimedSimulatorT {
 public:
  /// Number of independent simulation lanes per instance.
  static constexpr std::size_t kLanes = Block::kBits;
  /// uint64 words per net in every lane-major span.
  static constexpr std::size_t kWords = Block::kWords;

  /// Compiles `nl` privately.
  LaneTimedSimulatorT(const netlist::Netlist& nl,
                      const DelayAnnotation& delays)
      : LaneTimedSimulatorT(netlist::CompiledNetlist::compile(nl), delays) {}

  /// Shares an existing compile with other engines over the same design.
  LaneTimedSimulatorT(
      std::shared_ptr<const netlist::CompiledNetlist> compiled,
      const DelayAnnotation& delays)
      : compiled_(std::move(compiled)) {
    if (delays.gateCount() != compiled_->gateCount()) {
      throw std::invalid_argument(
          "LaneTimedSimulator: annotation does not match netlist");
    }
    fanoutOffset_ = compiled_->fanoutOffsets();
    readers_ = compiled_->readers();
    inputNets_ = compiled_->inputNets();
    const std::vector<TimePs> delaysPs = delays.quantizedDelaysPs();
    TimePs maxDelay = 0;
    gates_.resize(compiled_->gateCount());
    for (std::uint32_t gi = 0; gi < gates_.size(); ++gi) {
      const netlist::CompiledNetlist::GateRec& g = compiled_->gate(gi);
      const TimePs d = delaysPs[gi];
      if (d < 0 || d > kMaxDelayPs) {
        throw std::invalid_argument(
            "LaneTimedSimulator: gate delay outside supported range "
            "[0, ~1us]");
      }
      GateRec& rec = gates_[gi];
      rec.in = g.in;
      rec.out = g.out;
      rec.delayPs = static_cast<std::uint32_t>(d);
      rec.kind = static_cast<std::uint32_t>(g.kind);
      maxDelay = std::max(maxDelay, d);
    }
    lastSched_.resize(gates_.size() * kWords);
    dirty_.resize(gates_.size());
    const auto slots =
        std::bit_ceil(static_cast<std::uint64_t>(maxDelay) + 1);
    wheel_.resize(slots);
    wheelMask_ = static_cast<std::uint32_t>(slots - 1);
    reset();
  }

  /// Applies primary-input words at the current simulation time: kWords
  /// words per primary input (declaration order, input-major), bit L of
  /// sub-word j = lane 64j+L's value. The readers of changed inputs are
  /// evaluated when the next advance/settle drains the current slot.
  void applyInputs(std::span<const std::uint64_t> inputWords) {
    if (inputWords.size() != inputNets_.size() * kWords) {
      throw std::invalid_argument(
          "LaneTimedSimulator: wrong input word count");
    }
    for (std::size_t i = 0; i < inputNets_.size(); ++i) {
      const std::uint32_t net = inputNets_[i];
      const Block w =
          clampBlock(net, Block::load(inputWords.data() + i * kWords));
      const Block old = loadNet(net);
      if (!(old == w)) {
        laneTransitions_ +=
            static_cast<std::uint64_t>((old ^ w).popcount());
        storeNet(net, w);
        markReaders(net);
      }
    }
  }

  /// Advances simulation, processing all events strictly before
  /// `currentTime + deltaPs`, then sets current time to that instant.
  void advancePs(TimePs deltaPs) {
    if (deltaPs < 0) {
      throw std::invalid_argument("LaneTimedSimulator: negative advance");
    }
    armBudget();
    runUntil(now_ + deltaPs);
    now_ += deltaPs;
  }

  /// Nanosecond convenience form (rounds the span up to the ps grid).
  void advance(double deltaNs) { advancePs(quantizeSpanPs(deltaNs)); }

  /// Processes every pending event in every lane. Returns the timestamp of
  /// the last processed event. Throws std::runtime_error with a diagnostic
  /// if the event budget is exceeded (non-settling or cyclic netlist).
  TimePs settlePs() {
    armBudget();
    TimePs last = now_;
    while (pending_ > 0 || dirtyLen_ > 0) {
      if (drainSlot(cursor_)) last = cursor_;
      ++cursor_;
    }
    now_ = std::max(now_, last);
    cursor_ = now_;  // re-arm: zero-delay events at `now_` must still drain
    return last;
  }

  /// Current value words of the primary outputs, in declaration order
  /// (output-major, kWords words each).
  [[nodiscard]] std::vector<std::uint64_t> sampleOutputs() const {
    std::vector<std::uint64_t> out;
    sampleOutputsInto(out);
    return out;
  }

  /// Allocation-free sampling: writes the primary-output words into `out`.
  void sampleOutputsInto(std::vector<std::uint64_t>& out) const {
    const auto pos = compiled_->outputNets();
    out.resize(pos.size() * kWords);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      for (std::size_t j = 0; j < kWords; ++j) {
        out[i * kWords + j] = values_[std::size_t{pos[i]} * kWords + j];
      }
    }
  }

  /// Current 64-lane value word of an arbitrary net (64-lane engine only;
  /// wider engines slice netWords() by kWords).
  [[nodiscard]] std::uint64_t netWord(netlist::NetId net) const noexcept
    requires(Block::kWords == 1)
  {
    return values_[net.value];
  }

  [[nodiscard]] TimePs nowPs() const noexcept { return now_; }

  /// Committed events since reset (one event may change many lanes);
  /// laneTransitionsCommitted() counts the per-lane bit flips, input
  /// changes included. Both count slot-collapsed commits: a glitch inside
  /// one slot is never committed, so they sit below the scalar engine's.
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept {
    return eventCount_;
  }
  [[nodiscard]] std::uint64_t laneTransitionsCommitted() const noexcept {
    return laneTransitions_;
  }

  /// Per-call committed-event cap for advancePs/settlePs — the
  /// non-settling/cyclic netlist guard (see TimedSimulator::setEventBudget).
  void setEventBudget(std::uint64_t maxEventsPerCall) noexcept {
    budget_ = maxEventsPerCall;
  }
  [[nodiscard]] std::uint64_t eventBudget() const noexcept { return budget_; }

  /// Resets every lane to the settled all-inputs-low state at time 0 with
  /// no events. A cyclic netlist instead powers up all-zero with the
  /// disagreeing gates scheduled to react, as in the scalar engine.
  /// Net forces (forceNet) survive the reset and are re-applied to the
  /// power-up state.
  void reset() {
    // Broadcast the compiled settled all-inputs-low state to every lane.
    const auto zero = compiled_->zeroState();
    values_.resize(zero.size() * kWords);
    for (std::size_t n = 0; n < zero.size(); ++n) {
      storeNet(static_cast<std::uint32_t>(n),
               clampBlock(static_cast<std::uint32_t>(n),
                          zero[n] ? Block::ones() : Block::zero()));
    }
    for (Slot& slot : wheel_) slot.len = 0;
    pending_ = 0;
    for (std::uint32_t i = 0; i < dirtyLen_; ++i) gates_[dirty_[i]].dirty = 0;
    dirtyLen_ = 0;
    now_ = 0;
    cursor_ = 0;
    eventCount_ = 0;
    laneTransitions_ = 0;
    for (std::uint32_t gi = 0; gi < gates_.size(); ++gi) {
      const GateRec& rec = gates_[gi];
      const Block out = clampBlock(
          rec.out, netlist::evalGateBlock<Block>(
                       static_cast<netlist::GateKind>(rec.kind),
                       loadNet(rec.in[0]), loadNet(rec.in[1]),
                       loadNet(rec.in[2])));
      out.store(lastSched_.data() + std::size_t{gi} * kWords);
      if (!(out == loadNet(rec.out))) [[unlikely]] {
        pushEvent(wheel_[rec.delayPs & wheelMask_], rec.out, out);
      }
    }
  }

  /// Net-override hook on the wheel (stuck-at / defect injection): lanes
  /// set in `laneMask` of `net` are clamped to the corresponding bits of
  /// `bits` — the clamp rewrites every word committed to the net (input
  /// application, scheduled gate output, reset state), so readers and
  /// output sampling only ever see the forced value while healthy lanes
  /// keep simulating unchanged. The 64-bit mask/bits pattern applies to
  /// every 64-lane sub-word alike, so a fault injected "in lane L" exists
  /// in lane L of each sub-block — the convention the defect scan's
  /// stream-chunking relies on. Takes effect immediately at the current
  /// time: a clamp that changes the net's value marks its readers like
  /// any other committed change. Repeated calls accumulate per net.
  void forceNet(netlist::NetId net, std::uint64_t laneMask,
                std::uint64_t bits) {
    if (net.value >= compiled_->netCount()) {
      throw std::invalid_argument(
          "LaneTimedSimulator::forceNet: net index out of range (fault from "
          "another netlist?)");
    }
    if (forceMask_.empty()) {
      forceMask_.assign(values_.size(), 0);
      forceBits_.assign(values_.size(), 0);
    }
    const Block mask =
        Block::splat(laneMask) |
        Block::load(forceMask_.data() + std::size_t{net.value} * kWords);
    const Block oldBits =
        Block::load(forceBits_.data() + std::size_t{net.value} * kWords);
    const Block newBits = (oldBits & ~Block::splat(laneMask)) |
                          (Block::splat(bits) & Block::splat(laneMask));
    mask.store(forceMask_.data() + std::size_t{net.value} * kWords);
    newBits.store(forceBits_.data() + std::size_t{net.value} * kWords);
    forced_ = true;
    // Commit the clamp immediately at the current time, exactly like an
    // input change: readers of a net whose value flips react after their
    // own delays.
    const Block old = loadNet(net.value);
    const Block w = clampBlock(net.value, old);
    if (!(old == w)) {
      laneTransitions_ += static_cast<std::uint64_t>((old ^ w).popcount());
      storeNet(net.value, w);
      markReaders(net.value);
    }
  }

  /// Drops every net force. Already-committed forced values stay on the
  /// nets until re-driven (or until reset()).
  void clearNetForces() {
    if (!forced_) return;
    forced_ = false;
    std::fill(forceMask_.begin(), forceMask_.end(), 0);
    std::fill(forceBits_.begin(), forceBits_.end(), 0);
  }

  [[nodiscard]] bool hasNetForces() const noexcept { return forced_; }

  /// All current net value words, indexed by NetId * kWords.
  [[nodiscard]] const std::vector<std::uint64_t>& netWords() const noexcept {
    return values_;
  }

  [[nodiscard]] const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept {
    return compiled_;
  }

 private:
  /// Dense per-gate record: input/output net indices, quantized delay,
  /// gate kind and the dirty mark, packed into 32 bytes so marking and
  /// evaluating a reader touch one cache line (plus the shared values_
  /// words it gathers).
  struct GateRec {
    std::array<std::uint32_t, 3> in{};
    std::uint32_t out = 0;
    std::uint32_t delayPs = 0;
    std::uint32_t kind = 0;   ///< netlist::GateKind
    std::uint32_t dirty = 0;  ///< 1 while the gate sits in dirty_
    std::uint32_t pad_ = 0;
  };
  static constexpr TimePs kMaxDelayPs = TimePs{1} << 20;
  static constexpr std::uint64_t kDefaultEventBudget = std::uint64_t{1}
                                                       << 22;

  /// One scheduled net change carrying the full W-lane block; the
  /// timestamp is implied by the wheel slot.
  struct SlotEvent {
    std::uint32_t net;
    std::array<std::uint64_t, kWords> word;
  };
  struct Slot {
    std::vector<SlotEvent> data;
    std::uint32_t len = 0;
  };

  [[nodiscard]] inline Block loadNet(std::uint32_t net) const {
    return Block::load(values_.data() + std::size_t{net} * kWords);
  }
  inline void storeNet(std::uint32_t net, Block w) {
    w.store(values_.data() + std::size_t{net} * kWords);
  }

  /// Applies the net-override clamp to a block about to be scheduled or
  /// committed for `net`. The `forced_` flag keeps the fault-free hot
  /// path at one predictable branch.
  [[nodiscard]] inline Block clampBlock(std::uint32_t net, Block word) const {
    if (!forced_) [[likely]] {
      return word;
    }
    const Block mask =
        Block::load(forceMask_.data() + std::size_t{net} * kWords);
    const Block bits =
        Block::load(forceBits_.data() + std::size_t{net} * kWords);
    return (word & ~mask) | bits;
  }

  inline void pushEvent(Slot& slot, std::uint32_t net, Block word) {
    if (slot.len == slot.data.size()) [[unlikely]] {
      slot.data.resize(std::max<std::size_t>(8, slot.data.size() * 2));
    }
    SlotEvent& e = slot.data[slot.len];
    e.net = net;
    word.store(e.word.data());
    ++slot.len;
    ++pending_;
  }

  /// Queues every reader of a just-committed net for evaluation at the
  /// end of the current slot (each gate at most once).
  inline void markReaders(std::uint32_t net) {
    const std::uint32_t begin = fanoutOffset_[net];
    const std::uint32_t end = fanoutOffset_[net + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t g = readers_[i] >> 3;
      GateRec& rec = gates_[g];
      if (rec.dirty != 0) continue;
      rec.dirty = 1;
      dirty_[dirtyLen_++] = g;
    }
  }

  /// Evaluates every dirty gate once on the current (slot-end) values and
  /// schedules the changed outputs at t + delay.
  inline void evaluateDirty(TimePs t) {
    for (std::uint32_t i = 0; i < dirtyLen_; ++i) {
      const std::uint32_t g = dirty_[i];
      GateRec& rec = gates_[g];
      rec.dirty = 0;
      // Recompute the full W-lane output block. Lanes whose inputs did not
      // change recompute the value they already scheduled, so the dedup
      // below drops pure no-ops and a partially-changed block re-commits
      // quiet lanes' bits harmlessly. Forced (stuck) lanes of the output
      // net are clamped before the dedup, so a defective net never
      // schedules its healthy value.
      const Block out = clampBlock(
          rec.out, netlist::evalGateBlock<Block>(
                       static_cast<netlist::GateKind>(rec.kind),
                       loadNet(rec.in[0]), loadNet(rec.in[1]),
                       loadNet(rec.in[2])));
      const Block last =
          Block::load(lastSched_.data() + std::size_t{g} * kWords);
      if (out == last) continue;
      out.store(lastSched_.data() + std::size_t{g} * kWords);
      pushEvent(wheel_[(t + rec.delayPs) & wheelMask_], rec.out, out);
    }
    dirtyLen_ = 0;
  }

  /// Commits slot t, then evaluates the gates it (and any input change or
  /// clamp made at t) dirtied; repeats while zero-delay gates refill the
  /// slot. Returns whether the slot held any event.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  inline bool
  drainSlot(TimePs t) {
    Slot& slot = wheel_[t & wheelMask_];
    std::uint32_t i = 0;
    for (;;) {
      // Commit phase: nothing is pushed here, so the slot cannot grow.
      for (; i < slot.len; ++i) {
        const SlotEvent& e = slot.data[i];
        // Re-clamp at commit: an event scheduled before a forceNet call
        // still carries the healthy word.
        const Block word = clampBlock(e.net, Block::load(e.word.data()));
        const Block old = loadNet(e.net);
        if (old == word) continue;
        storeNet(e.net, word);
        laneTransitions_ +=
            static_cast<std::uint64_t>((old ^ word).popcount());
        if (++eventCount_ > failAt_) [[unlikely]] {
          throwBudgetExceeded();
        }
        markReaders(e.net);
      }
      if (dirtyLen_ == 0) break;
      evaluateDirty(t);
    }
    const bool any = slot.len != 0;
    pending_ -= slot.len;
    slot.len = 0;
    return any;
  }

  void runUntil(TimePs horizon) {
    while ((pending_ > 0 || dirtyLen_ > 0) && cursor_ < horizon) {
      drainSlot(cursor_);
      ++cursor_;
    }
    if (cursor_ < horizon) cursor_ = horizon;  // nothing pending: skip ahead
  }

  /// Saturating: a budget of ~0 ("unlimited") must not wrap failAt_.
  inline void armBudget() noexcept {
    failAt_ = eventCount_ > ~std::uint64_t{0} - budget_
                  ? ~std::uint64_t{0}
                  : eventCount_ + budget_;
  }

  [[noreturn]] void throwBudgetExceeded() const {
    throw std::runtime_error(
        "LaneTimedSimulator: event budget of " + std::to_string(budget_) +
        " committed events exceeded within one advance/settle call — "
        "non-settling or cyclic netlist? (the simulator state is "
        "inconsistent; call reset() before reuse)");
  }

  std::shared_ptr<const netlist::CompiledNetlist> compiled_;
  std::vector<GateRec> gates_;
  /// Per gate: last scheduled block (kWords words each).
  std::vector<std::uint64_t> lastSched_;
  std::span<const std::uint32_t> fanoutOffset_;  // shared CSR (compiled_)
  std::span<const std::uint32_t> readers_;
  std::span<const std::uint32_t> inputNets_;
  /// Gates marked since the last evaluation, in marking order; holds each
  /// gate at most once, so it is sized to the gate count up front.
  std::vector<std::uint32_t> dirty_;
  std::uint32_t dirtyLen_ = 0;
  std::vector<std::uint64_t> values_;  // indexed by NetId * kWords
  std::vector<Slot> wheel_;
  std::uint32_t wheelMask_ = 0;
  std::uint64_t pending_ = 0;
  TimePs now_ = 0;
  TimePs cursor_ = 0;
  std::uint64_t eventCount_ = 0;
  std::uint64_t laneTransitions_ = 0;
  std::uint64_t budget_ = kDefaultEventBudget;
  std::uint64_t failAt_ = ~std::uint64_t{0};
  /// Net-override state (empty until the first forceNet call),
  /// kWords words per net.
  std::vector<std::uint64_t> forceMask_;
  std::vector<std::uint64_t> forceBits_;
  bool forced_ = false;
};

/// The canonical 64-lane reference engine (original API: one word per
/// net/input/output).
using LaneTimedSimulator = LaneTimedSimulatorT<netlist::LaneBlock64>;

/// Drives a LaneTimedSimulatorT like W clocked register stages sharing one
/// clock: per step, W input vectors (one per lane, lane-major words) are
/// applied at a common edge and all lanes' outputs latch one period later.
/// The shared cursor makes the scalar engine's strictly-before-edge latch
/// semantics hold for every lane.
template <class Block>
class LaneClockedSamplerT {
 public:
  static constexpr std::size_t kLanes = Block::kBits;
  static constexpr std::size_t kWords = Block::kWords;

  LaneClockedSamplerT(
      std::shared_ptr<const netlist::CompiledNetlist> compiled,
      const DelayAnnotation& delays, double periodNs)
      : sim_(std::move(compiled), delays),
        periodNs_(periodNs),
        periodPs_(quantizeSpanPs(periodNs)) {
    if (periodNs <= 0.0 || periodPs_ <= 0) {
      throw std::invalid_argument(
          "LaneClockedSampler: period must be positive");
    }
  }
  LaneClockedSamplerT(const netlist::Netlist& nl,
                      const DelayAnnotation& delays, double periodNs)
      : LaneClockedSamplerT(netlist::CompiledNetlist::compile(nl), delays,
                            periodNs) {}

  /// Settles every lane on an initial vector (reset cycle; no sampling).
  void initialize(std::span<const std::uint64_t> inputWords) {
    sim_.applyInputs(inputWords);
    (void)sim_.settlePs();
  }

  /// Applies the cycle's input vectors, advances one period, and writes
  /// the latched primary-output words into `out`.
  void stepInto(std::span<const std::uint64_t> inputWords,
                std::vector<std::uint64_t>& out) {
    sim_.applyInputs(inputWords);
    sim_.advancePs(periodPs_);
    sim_.sampleOutputsInto(out);
  }

  [[nodiscard]] double periodNs() const noexcept { return periodNs_; }
  [[nodiscard]] TimePs periodPs() const noexcept { return periodPs_; }
  [[nodiscard]] LaneTimedSimulatorT<Block>& simulator() noexcept {
    return sim_;
  }

 private:
  LaneTimedSimulatorT<Block> sim_;
  double periodNs_;
  TimePs periodPs_;
};

using LaneClockedSampler = LaneClockedSamplerT<netlist::LaneBlock64>;

// Portable widths are instantiated once in lane_sim.cpp (baseline flags);
// the intrinsic widths live in the two ISA TUs (fault/lane_engines_avx*).
extern template class LaneTimedSimulatorT<netlist::LaneBlock<64>>;
extern template class LaneTimedSimulatorT<netlist::LaneBlock<256>>;
extern template class LaneTimedSimulatorT<netlist::LaneBlock<512>>;
extern template class LaneClockedSamplerT<netlist::LaneBlock<64>>;
extern template class LaneClockedSamplerT<netlist::LaneBlock<256>>;
extern template class LaneClockedSamplerT<netlist::LaneBlock<512>>;

}  // namespace oisa::timing
