// live::WallClock: the wall-time pacer over a sim::Simulation. Pacing must
// not change what the simulation does, only when: a paced run fires the same
// events at the same virtual times as an unpaced one. Real-time pacing must
// map wall elapsed onto virtual milliseconds and honour the speed factor.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "live/wall_clock.hpp"
#include "simcore/simulation.hpp"

namespace spothost {
namespace {

using live::WallClock;
using sim::kSecond;
using sim::SimTime;

TEST(WallClock, RejectsBadOptions) {
  sim::Simulation s;
  EXPECT_THROW(WallClock(s, 0.0), std::invalid_argument);
  EXPECT_THROW(WallClock(s, -2.0), std::invalid_argument);
  EXPECT_THROW(WallClock(s, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(WallClock, MaxSpeedPollDrainsEverythingPending) {
  // No pacing: one poll() runs the whole queue — out-of-order scheduling and
  // duplicate timestamps included — in (time, schedule-seq) order.
  sim::Simulation s;
  std::vector<int> fired;
  s.at(30, [&] { fired.push_back(3); });
  s.at(10, [&] { fired.push_back(1); });
  s.at(20, [&] { fired.push_back(20); });
  s.at(20, [&] { fired.push_back(21); });  // FIFO among equals
  s.at(10, [&] { fired.push_back(2); });
  WallClock clock(s, WallClock::kMaxSpeed);
  EXPECT_EQ(clock.poll(), 5u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 20, 21, 3}));
  EXPECT_EQ(s.now(), 30);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(WallClock, PacedRunMatchesSimulationRunUntil) {
  // The same schedule — nested after()s, equal timestamps, a cancel — fires
  // in the same order with the same now() values whether the simulation
  // runs straight to the horizon or is paced there on the wall clock.
  using Firing = std::pair<int, SimTime>;
  auto program = [](sim::Simulation& s, std::vector<Firing>& log) {
    s.after(3, [&s, &log] {
      log.emplace_back(1, s.now());
      s.after(4, [&s, &log] { log.emplace_back(2, s.now()); });
      s.after(0, [&s, &log] { log.emplace_back(3, s.now()); });
    });
    s.at(5, [&s, &log] { log.emplace_back(4, s.now()); });
    s.at(3, [&s, &log] { log.emplace_back(5, s.now()); });
    sim::EventHandle dropped = s.at(60, [&s, &log] { log.emplace_back(6, s.now()); });
    s.at(80, [&s, &log, dropped]() mutable {
      log.emplace_back(7, s.now());
      (void)dropped.cancel();  // already fired: a no-op on both runs
    });
    s.at(40, [&s, &log] { log.emplace_back(8, s.now()); });
  };
  constexpr SimTime kHorizon = 100;

  sim::Simulation reference;
  std::vector<Firing> expected;
  program(reference, expected);
  reference.run_until(kHorizon);

  sim::Simulation paced;
  std::vector<Firing> got;
  program(paced, got);
  WallClock clock(paced, 50.0);  // 100 virtual ms ≈ 2 ms of wall time
  clock.run_until(kHorizon);

  EXPECT_EQ(expected, (std::vector<Firing>{
                          {1, 3}, {5, 3}, {3, 3}, {4, 5}, {2, 7}, {8, 40}, {6, 60}, {7, 80}}));
  EXPECT_EQ(got, expected);
  EXPECT_EQ(paced.now(), reference.now());
  EXPECT_EQ(paced.now(), kHorizon);
  EXPECT_EQ(paced.dispatched(), reference.dispatched());
}

TEST(WallClock, CancelPreventsDispatch) {
  sim::Simulation s;
  bool fired = false;
  auto handle = s.after(10, [&] { fired = true; });
  EXPECT_TRUE(handle.cancel());
  WallClock clock(s, WallClock::kMaxSpeed);
  EXPECT_EQ(clock.poll(), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.dispatched(), 0u);
}

TEST(WallClock, WallUntilNextReflectsQueueState) {
  sim::Simulation unpaced_sim;
  WallClock unpaced(unpaced_sim, WallClock::kMaxSpeed);
  EXPECT_FALSE(unpaced.wall_until_next().has_value());
  unpaced_sim.after(50, [] {});
  ASSERT_TRUE(unpaced.wall_until_next().has_value());
  EXPECT_EQ(unpaced.wall_until_next()->count(), 0);  // no pacing: due now

  sim::Simulation realtime_sim;
  WallClock realtime(realtime_sim, 1.0);
  realtime_sim.after(60 * kSecond, [] {});
  const auto wait = realtime.wall_until_next();
  ASSERT_TRUE(wait.has_value());
  // Due about a minute of wall time out (minus the test's epsilon of runtime).
  EXPECT_GT(*wait, std::chrono::seconds{50});
  EXPECT_LE(*wait, std::chrono::seconds{60});
}

TEST(WallClock, RealTimeRunAdvancesWithWallTime) {
  // 200 virtual ms at 100x ≈ 2 ms of wall time: fast enough for CI, real
  // enough to prove the pacer actually sleeps on the wall clock.
  sim::Simulation s;
  std::vector<SimTime> fired;
  s.at(50, [&] { fired.push_back(s.now()); });
  s.at(200, [&] { fired.push_back(s.now()); });
  WallClock clock(s, 100.0);
  const auto wall_start = std::chrono::steady_clock::now();
  clock.run_until(200);
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;
  EXPECT_EQ(fired, (std::vector<SimTime>{50, 200}));
  EXPECT_EQ(s.now(), 200);
  // Must have taken at least the mapped wall duration (2 ms), but CI jitter
  // means we only bound it loosely from above.
  EXPECT_GE(wall_elapsed, std::chrono::milliseconds{1});
  EXPECT_LT(wall_elapsed, std::chrono::seconds{30});
}

TEST(WallClock, PollNeverMovesTimeBackwards) {
  sim::Simulation s;
  WallClock clock(s, 10000.0);  // a poll after any sleep lands past the timer
  std::vector<SimTime> fired;
  s.after(1, [&] { fired.push_back(s.now()); });
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  clock.poll();
  const SimTime after_first = s.now();
  EXPECT_GE(after_first, 1);
  clock.poll();
  EXPECT_GE(s.now(), after_first);
  EXPECT_EQ(fired.size(), 1u);
}

TEST(WallClock, StartTimeAnchorsVirtualAxis) {
  // The virtual anchor is the simulation's time when pacing starts.
  sim::Simulation s;
  s.run_until(42 * kSecond);
  WallClock clock(s, 1.0);
  bool fired = false;
  s.after(60 * kSecond, [&] { fired = true; });
  const auto wait = clock.wall_until_next();
  ASSERT_TRUE(wait.has_value());
  EXPECT_GT(*wait, std::chrono::seconds{50});
  EXPECT_LE(*wait, std::chrono::seconds{60});
  clock.poll();
  EXPECT_FALSE(fired);
  EXPECT_GE(s.now(), 42 * kSecond);
  EXPECT_LT(s.now(), 52 * kSecond);
}

}  // namespace
}  // namespace spothost
