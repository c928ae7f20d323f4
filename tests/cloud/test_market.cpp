#include "cloud/market.hpp"
#include "simcore/simulation.hpp"
#include "trace/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace spothost::cloud {
namespace {

using sim::kHour;
using sim::kMinute;

trace::PriceTrace simple_trace() {
  trace::PriceTrace t;
  t.append(0, 0.02);
  t.append(10 * kMinute, 0.05);
  t.append(20 * kMinute, 0.03);
  t.set_end(kHour);
  return t;
}

TEST(MarketId, EqualityAndString) {
  const MarketId a{"us-east-1a", InstanceSize::kSmall};
  const MarketId b{"us-east-1a", InstanceSize::kSmall};
  const MarketId c{"us-east-1a", InstanceSize::kLarge};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.str(), "us-east-1a/small");
}

TEST(MarketId, HashDistinguishesSizes) {
  const MarketIdHash h;
  EXPECT_NE(h(MarketId{"r", InstanceSize::kSmall}),
            h(MarketId{"r", InstanceSize::kMedium}));
}

TEST(SpotMarket, RejectsEmptyTrace) {
  sim::Simulation s;
  EXPECT_THROW(SpotMarket(s, MarketId{"r", InstanceSize::kSmall},
                          trace::PriceTrace{}, 0.06),
               std::invalid_argument);
}

TEST(SpotMarket, RejectsNonPositiveOnDemandPrice) {
  sim::Simulation s;
  EXPECT_THROW(
      SpotMarket(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.0),
      std::invalid_argument);
}

TEST(SpotMarket, PriceTracksSimulationClock) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  m.start();
  EXPECT_DOUBLE_EQ(m.price(), 0.02);
  s.run_until(15 * kMinute);
  EXPECT_DOUBLE_EQ(m.price(), 0.05);
  s.run_until(25 * kMinute);
  EXPECT_DOUBLE_EQ(m.price(), 0.03);
}

TEST(SpotMarket, ObserversFireOnEveryChange) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  std::vector<double> seen;
  m.subscribe([&](const SpotMarket&, double p) { seen.push_back(p); });
  m.start();
  s.run_until(kHour);
  EXPECT_EQ(seen, (std::vector<double>{0.05, 0.03}));
}

TEST(SpotMarket, UnsubscribeStopsDelivery) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  int count = 0;
  const auto sub = m.subscribe([&](const SpotMarket&, double) { ++count; });
  m.start();
  s.run_until(15 * kMinute);
  EXPECT_EQ(count, 1);
  m.unsubscribe(sub);
  s.run_until(kHour);
  EXPECT_EQ(count, 1);
}

TEST(SpotMarket, ObserverMaySubscribeReentrantly) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  int inner = 0;
  m.subscribe([&](const SpotMarket& mk, double) {
    const_cast<SpotMarket&>(mk).subscribe(
        [&](const SpotMarket&, double) { ++inner; });
  });
  m.start();
  s.run_until(kHour);
  // First change adds one inner observer; second change fires it once (plus
  // adds another).
  EXPECT_EQ(inner, 1);
}

TEST(SpotMarket, StartTwiceThrows) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  m.start();
  EXPECT_THROW(m.start(), std::logic_error);
}

TEST(SpotMarket, PriceClampedAtHorizonEdge) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  m.start();
  s.run_until(kHour);  // clock parked exactly at trace end
  EXPECT_DOUBLE_EQ(m.price(), 0.03);
}

TEST(SpotMarket, PriceStddevMatchesTraceStddev) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  const trace::PriceTrace& t = m.price_trace();
  // Alternating windows, each asked twice: no answer leaks into another.
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(m.price_stddev(0, kHour), trace::trace_stddev(t, 0, kHour));
    EXPECT_EQ(m.price_stddev(0, kHour), trace::trace_stddev(t, 0, kHour));
    EXPECT_EQ(m.price_stddev(5 * kMinute, kHour),
              trace::trace_stddev(t, 5 * kMinute, kHour));
    EXPECT_EQ(m.price_stddev(0, 15 * kMinute),
              trace::trace_stddev(t, 0, 15 * kMinute));
  }
  EXPECT_NE(m.price_stddev(0, 15 * kMinute), m.price_stddev(0, kHour));
}

// A push-fed market's trace changes under a fixed window: a commit appends
// inside a window billable_trace has extended, and a second update in the
// same millisecond amends that point. Each must reach price_stddev.
TEST(SpotMarket, PriceStddevMemoForgetsEveryTraceChange) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, 0.5);
  m.start();
  m.prime(0.02);
  s.run_until(5 * kMinute);
  m.push_price(0.04);
  (void)m.billable_trace(20 * kMinute);
  const auto fresh = [&] { return trace::trace_stddev(m.price_trace(), 0, 20 * kMinute); };

  const double before = m.price_stddev(0, 20 * kMinute);
  EXPECT_EQ(before, fresh());

  s.run_until(10 * kMinute);
  m.push_price(0.09);  // commit_staged appends at 10 min
  const double appended = m.price_stddev(0, 20 * kMinute);
  EXPECT_NE(appended, before);
  EXPECT_EQ(appended, fresh());

  m.push_price(0.30);  // same millisecond: amend_last rewrites that point
  const double amended = m.price_stddev(0, 20 * kMinute);
  EXPECT_NE(amended, appended);
  EXPECT_EQ(amended, fresh());
}

TEST(SpotMarket, PriceStddevMemoForgetsPrimeAndEndExtension) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, 0.5);
  m.start();
  m.prime(0.02);
  s.run_until(5 * kMinute);
  m.push_price(0.04);
  (void)m.billable_trace(10 * kMinute);
  const double short_window = m.price_stddev(0, 10 * kMinute);
  EXPECT_EQ(short_window, trace::trace_stddev(m.price_trace(), 0, 10 * kMinute));
  // Extending the end leaves the window's prices alone, so its answer too.
  (void)m.billable_trace(30 * kMinute);
  EXPECT_EQ(m.price_stddev(0, 10 * kMinute), short_window);
  EXPECT_EQ(m.price_stddev(0, 30 * kMinute),
            trace::trace_stddev(m.price_trace(), 0, 30 * kMinute));
}

}  // namespace
}  // namespace spothost::cloud
