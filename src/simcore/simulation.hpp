// The discrete-event simulation engine.
//
// A Simulation owns the clock and the event queue. Components schedule
// callbacks at absolute or relative times; run_until() advances the clock to
// each event in order. The engine is single-threaded by design: determinism
// matters more than parallel event dispatch *within* a run — experiments
// parallelise across runs (seeds) instead. What changed with fleet scale is
// the event rate a single run must sustain: a 30-day single-service run is
// ~10^4 events, but one simulation carrying a 100k-1M-service fleet pushes
// 10^8-10^9 periodic hour-tick/poll events through this loop. The queue
// behind it is a binary heap: on the measured workloads it is level with the
// O(1) timing wheel on the fleets and faster on the paper sweep, whose
// queue holds ~20 events (see simcore/event_queue.hpp). The wheel stays
// behind the EventQueue seam only for callers that name it.
//
// This is the only event loop in the library. Serving on wall time does not
// swap it out: live::WallClock paces a Simulation by calling run_until() with
// wall-mapped targets (live/wall_clock.hpp), so a backtest and a live
// session dispatch through the same loop.
//
// Policy code should not depend on this class: it programs against the
// narrow sim::Clock interface (simcore/clock.hpp) that Simulation
// implements, and manages its pending events through the EventHandle values
// that at()/after() return. Run-control code (the experiment layer) uses
// the sim::Engine interface (simcore/engine.hpp);
// scripts/check_layering.sh keeps this header out of sched/virt/cloud.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "simcore/clock.hpp"
#include "simcore/engine.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/time.hpp"

namespace spothost::sim {

class Simulation final : public Engine {
 public:
  /// Backed by `backend`: the binary heap unless a caller names the timing
  /// wheel.
  explicit Simulation(QueueBackend backend = QueueBackend::kBinaryHeap)
      : queue_(make_event_queue(backend)) {}
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const noexcept override { return now_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  EventHandle at(SimTime when, Callback cb) override;

  /// Schedules `cb` after a relative delay (must be >= 0).
  EventHandle after(SimTime delay, Callback cb) override;

  /// Cancels a pending event; returns false if it already fired. Prefer
  /// EventHandle::cancel() in policy code.
  bool cancel(EventId id) override { return queue_->cancel(id); }

  /// Runs events until the queue is empty or the clock would pass `horizon`.
  /// The clock is left at min(horizon, last event time); events scheduled at
  /// exactly `horizon` do fire.
  void run_until(SimTime horizon) override;

  /// Fires the single next event, if any. Returns false when idle.
  bool step();

  /// Number of events dispatched so far (for perf benchmarking and tests).
  [[nodiscard]] std::uint64_t dispatched() const noexcept override {
    return dispatched_;
  }

  /// Pending live events.
  [[nodiscard]] std::size_t pending() const override { return queue_->size(); }

  /// Time of the earliest pending event (cancelled ones skipped); nullopt
  /// when idle. What a wall-clock pacer sleeps on.
  [[nodiscard]] std::optional<SimTime> next_time() const {
    if (queue_->empty()) return std::nullopt;
    return queue_->next_time();
  }

  /// Which EventQueue implementation this simulation runs on.
  [[nodiscard]] QueueBackend backend() const noexcept {
    return queue_->backend();
  }

  /// Attaches the run's trace dispatcher (not owned; nullptr disables).
  /// Components that hold a Clock& read the tracer from here, so one attach
  /// point covers the provider, scheduler, and anything else wired to this
  /// engine. Disabled tracing costs emitters a single null check.
  void set_tracer(obs::Tracer* tracer) noexcept override { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept override { return tracer_; }

  /// Attaches the run's fault-injection source (not owned; nullptr = no
  /// injection). Mirrors set_tracer: components holding a Clock& read the
  /// injector from here, so one attach point covers the provider and the
  /// migration engine without constructor plumbing. An injector with an
  /// empty FaultPlan is equivalent to none (zero draws, zero events).
  void set_fault_injector(faults::FaultInjector* injector) noexcept override {
    fault_injector_ = injector;
  }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept override {
    return fault_injector_;
  }

 private:
  SimTime now_ = 0;
  std::unique_ptr<EventQueue> queue_;
  std::uint64_t dispatched_ = 0;
  obs::Tracer* tracer_ = nullptr;
  faults::FaultInjector* fault_injector_ = nullptr;
};

}  // namespace spothost::sim
