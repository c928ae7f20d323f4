#include "live/wall_clock.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace spothost::live {

namespace {
constexpr sim::SimTime kForever = std::numeric_limits<sim::SimTime>::max();

std::chrono::nanoseconds to_wall(sim::SimTime virtual_ms, double speed) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(
          static_cast<double>(virtual_ms) / speed));
}
}  // namespace

WallClock::WallClock(sim::Simulation& sim, double speed)
    : sim_(sim),
      speed_(speed),
      anchor_wall_(std::chrono::steady_clock::now()),
      anchor_virtual_(sim.now()) {
  // Negated so NaN is rejected too.
  if (!(speed > 0.0)) throw std::invalid_argument("WallClock: speed must be > 0");
}

sim::SimTime WallClock::wall_virtual_now() const {
  if (speed_ == kMaxSpeed) return kForever;
  const auto elapsed = std::chrono::steady_clock::now() - anchor_wall_;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  const double virtual_ms = static_cast<double>(anchor_virtual_) + wall_ms * speed_;
  if (virtual_ms >= static_cast<double>(kForever)) return kForever;
  return static_cast<sim::SimTime>(virtual_ms);
}

std::size_t WallClock::poll() {
  const std::uint64_t before = sim_.dispatched();
  sim_.run_until(std::max(sim_.now(), wall_virtual_now()));
  return static_cast<std::size_t>(sim_.dispatched() - before);
}

std::optional<std::chrono::nanoseconds> WallClock::wall_until_next() const {
  const std::optional<sim::SimTime> next = sim_.next_time();
  if (!next.has_value()) return std::nullopt;
  const sim::SimTime vnow = wall_virtual_now();
  if (*next <= vnow) return std::chrono::nanoseconds{0};
  return to_wall(*next - vnow, speed_);
}

void WallClock::run_until(sim::SimTime horizon) {
  for (;;) {
    const sim::SimTime target =
        std::min(horizon, std::max(sim_.now(), wall_virtual_now()));
    sim_.run_until(target);
    if (target >= horizon) return;
    // Sleep until the next pending event is due (or the horizon if idle),
    // then loop: events scheduled by dispatched callbacks shorten the next
    // sleep automatically.
    const sim::SimTime next_due = std::min(horizon, sim_.next_time().value_or(horizon));
    const sim::SimTime vnow = wall_virtual_now();
    if (next_due > vnow) std::this_thread::sleep_for(to_wall(next_due - vnow, speed_));
  }
}

}  // namespace spothost::live
