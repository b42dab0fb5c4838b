// anu::Clock against real time: the event kernel's calendar, paced by a
// TimeSource.
//
// The decision core's behaviour must not depend on which clock drives it
// (docs/runtime.md), so this clock does not dispatch timers itself. It owns
// a sim::Simulation and schedules through a sim::SimClock over it — the
// very (time, seq) calendar, slab and generation-checked handles that
// experiments run on. Handles returned by schedule_at() belong to that
// inner SimClock, so cancellation is the kernel's. What the adapter adds is
// only what real time needs:
//
//   * now() outside a callback follows the source (never earlier than the
//     calendar); inside one it is the firing timer's deadline, not the
//     jittery instant the host thread got scheduled;
//   * schedule_at() clamps a past deadline to now();
//   * pump() runs the calendar up to now(), and next_deadline() peeks at
//     it for the event loop's poll timeout.
//
// Single-threaded by design — pump() it from the owning event loop.
#pragma once

#include <cstddef>

#include "common/clock.h"
#include "runtime/time_source.h"
#include "sim/sim_clock.h"
#include "sim/simulation.h"

namespace anu::runtime {

class RealtimeClock final : public anu::Clock {
 public:
  explicit RealtimeClock(TimeSource& source) : source_(source) {}

  /// Inside a firing callback: that timer's deadline. Outside: the source's
  /// current time (never earlier than the last fired deadline).
  [[nodiscard]] SimTime now() const override;

  /// Deadlines in the past are clamped to now() and fire at the next pump.
  anu::TimerHandle schedule_at(SimTime when, Action action) override;

  /// The live runtime attaches no trace sink.
  [[nodiscard]] obs::TraceSink* trace() const override { return nullptr; }

  /// Fires every timer whose deadline has been reached, in (deadline, seq)
  /// order; returns the number fired. Call from the event loop whenever it
  /// wakes up.
  std::size_t pump();

  /// Earliest pending (non-cancelled) deadline, or a negative value when no
  /// timer is armed — the event loop turns this into its poll timeout.
  [[nodiscard]] SimTime next_deadline();

 private:
  // Never reached: every handle schedule_at() returns names calendar_.
  void cancel_timer(std::uint64_t /*a*/, std::uint64_t /*b*/) override {}
  [[nodiscard]] bool timer_cancelled(std::uint64_t /*a*/,
                                     std::uint64_t /*b*/) const override {
    return false;
  }

  TimeSource& source_;
  sim::Simulation sim_;
  sim::SimClock calendar_{sim_};
  bool firing_ = false;  // true while pump() runs callbacks
};

}  // namespace anu::runtime
