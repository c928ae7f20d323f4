// The wall-time pacer: runs a sim::Simulation against std::chrono::steady_clock.
//
// WallClock is not an engine. It owns no queue and dispatches nothing; it
// maps elapsed wall time onto the simulation's millisecond SimTime axis and
// advances the Simulation with run_until(target). The serve loop therefore
// runs the one event loop every experiment runs, and what a live session
// does at a given virtual time is what the backtest does by construction.
//
//   * speed 1.0  — real time: one virtual millisecond per wall millisecond.
//   * speed N    — paced: N virtual ms per wall ms (demo / soak).
//   * kMaxSpeed  — no pacing: poll() runs everything pending, run_until()
//     never sleeps (spothost_serve --mode tail --speed max).
//
// Virtual time only advances inside poll()/run_until(): between calls the
// simulation's now() is the last target, never a raw steady_clock read, so
// now() is stable within a callback and scheduling stays monotone. The
// price is that now() lags wall time by up to one poll interval, which the
// serve loop keeps at ~10 ms.
//
// Single-threaded, like Simulation. Feed ingestion from another thread must
// be handed over through the feed's own synchronization (live::FileTailFeed
// reads a file, so the filesystem is the handoff).
#pragma once

#include <chrono>
#include <cstddef>
#include <limits>
#include <optional>

#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace spothost::live {

class WallClock {
 public:
  /// Speed value meaning "no pacing".
  static constexpr double kMaxSpeed = std::numeric_limits<double>::infinity();

  /// Paces `sim` (not owned; must outlive the pacer) at `speed` virtual
  /// milliseconds per wall millisecond, from the simulation's current
  /// time. Throws std::invalid_argument unless speed > 0.
  WallClock(sim::Simulation& sim, double speed);

  /// Runs the simulation up to the wall-mapped time (everything pending at
  /// kMaxSpeed). Never sleeps. Returns the number of events dispatched.
  std::size_t poll();

  /// Runs the simulation to `horizon`, sleeping until each next event is
  /// due on the wall clock. Do not pass the run-forever sentinel unless
  /// something is guaranteed to drain the queue.
  void run_until(sim::SimTime horizon);

  /// Wall duration until the next pending event is due (zero if already
  /// due, or at kMaxSpeed); nullopt when idle. The serve loop sleeps on this.
  [[nodiscard]] std::optional<std::chrono::nanoseconds> wall_until_next() const;

 private:
  /// Virtual time of the current wall instant; the run-forever sentinel at
  /// kMaxSpeed.
  [[nodiscard]] sim::SimTime wall_virtual_now() const;

  sim::Simulation& sim_;
  double speed_;
  std::chrono::steady_clock::time_point anchor_wall_;
  sim::SimTime anchor_virtual_;
};

}  // namespace spothost::live
