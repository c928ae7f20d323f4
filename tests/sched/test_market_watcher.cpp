// MarketWatcher: one provider subscription per market no matter how many
// listeners, deterministic fan-out order, typed hour-tick triggers. Plus
// the CrossingDetector edge semantics the scheduler's price-crossing events
// rely on.
#include "sched/market_watcher.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "simcore/simulation.hpp"

namespace spothost::sched {
namespace {

// The production surface is the TriggerListener interface (CloudScheduler
// implements it directly); tests wrap ad-hoc lambdas in an adapter the
// fixture owns.
struct FnListener final : MarketWatcher::TriggerListener {
  std::function<void(const MarketWatcher::Trigger&)> fn;
  explicit FnListener(std::function<void(const MarketWatcher::Trigger&)> f)
      : fn(std::move(f)) {}
  void on_trigger(const MarketWatcher::Trigger& t) override { fn(t); }
};

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kHour;
using sim::kMinute;

const MarketId kA{"us-east-1a", InstanceSize::kSmall};
const MarketId kB{"us-east-1b", InstanceSize::kSmall};
constexpr sim::SimTime kHorizon = 6 * kHour;

class MarketWatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<sim::RngFactory>(7);
    sim_ = std::make_unique<sim::Simulation>();
    provider_ = std::make_unique<cloud::CloudProvider>(*sim_, *rng_);
    add_market(kA, {{0, 0.02}, {kHour, 0.04}, {2 * kHour, 0.03}});
    add_market(kB, {{0, 0.05}, {3 * kHour, 0.01}});
    cloud::AllocationLatency lat;
    lat.on_demand_cv = 0.0;
    lat.spot_mean_s = 60.0;
    lat.spot_cv = 0.0;
    provider_->set_allocation_latency("us-east-1a", lat);
    provider_->start();
    watcher_ = std::make_unique<MarketWatcher>(*sim_, *provider_);
  }

  void add_market(const MarketId& market,
                  std::vector<std::pair<sim::SimTime, double>> steps) {
    trace::PriceTrace t;
    for (const auto& [at, price] : steps) t.append(at, price);
    t.set_end(kHorizon);
    provider_->add_market(market, std::move(t), 0.06);
  }

  MarketWatcher::ListenerId add_listener(
      std::function<void(const MarketWatcher::Trigger&)> fn) {
    owned_.push_back(std::make_unique<FnListener>(std::move(fn)));
    return watcher_->add_listener(owned_.back().get());
  }

  std::vector<std::unique_ptr<FnListener>> owned_;
  std::unique_ptr<sim::RngFactory> rng_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<MarketWatcher> watcher_;
};

TEST_F(MarketWatcherTest, SubscribesToEachProviderFeedOnce) {
  const auto l1 = add_listener([](const MarketWatcher::Trigger&) {});
  const auto l2 = add_listener([](const MarketWatcher::Trigger&) {});
  watcher_->watch(l1, {kA, kB});
  watcher_->watch(l2, {kA});
  watcher_->watch(l2, {kA});  // duplicate interest is a no-op

  EXPECT_EQ(watcher_->provider_subscriptions(), 2u);
  EXPECT_EQ(watcher_->listener_count(), 2u);
  // Each market feed: the provider's own revocation logic + the watcher.
  EXPECT_EQ(provider_->market(kA).observer_count(), 2u);
  EXPECT_EQ(provider_->market(kB).observer_count(), 2u);
}

TEST_F(MarketWatcherTest, DeliversPriceTriggersToInterestedListenersOnly) {
  std::vector<std::pair<MarketId, double>> seen_a;
  std::vector<std::pair<MarketId, double>> seen_b;
  const auto la = add_listener([&](const MarketWatcher::Trigger& t) {
    ASSERT_EQ(t.kind, MarketWatcher::TriggerKind::kPriceChange);
    seen_a.emplace_back(provider_->market(t.market).id(), t.price);
  });
  const auto lb = add_listener([&](const MarketWatcher::Trigger& t) {
    seen_b.emplace_back(provider_->market(t.market).id(), t.price);
  });
  watcher_->watch(la, {kA});
  watcher_->watch(lb, {kB});
  sim_->run_until(kHorizon);

  ASSERT_EQ(seen_a.size(), 2u);  // steps at 1 h and 2 h (t=0 is initial state)
  EXPECT_EQ(seen_a[0], (std::pair{kA, 0.04}));
  EXPECT_EQ(seen_a[1], (std::pair{kA, 0.03}));
  ASSERT_EQ(seen_b.size(), 1u);
  EXPECT_EQ(seen_b[0], (std::pair{kB, 0.01}));
}

TEST_F(MarketWatcherTest, FanOutFollowsRegistrationOrder) {
  std::vector<int> order;
  const auto first = add_listener(
      [&](const MarketWatcher::Trigger&) { order.push_back(1); });
  const auto second = add_listener(
      [&](const MarketWatcher::Trigger&) { order.push_back(2); });
  // Watch in reverse order: delivery must still follow listener
  // registration, which is what fleet determinism keys on.
  watcher_->watch(second, {kA});
  watcher_->watch(first, {kA});
  sim_->run_until(90 * kMinute);  // one step at 1 h
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(MarketWatcherTest, RemovedListenerReceivesNothing) {
  int fired = 0;
  const auto id = add_listener(
      [&](const MarketWatcher::Trigger&) { ++fired; });
  watcher_->watch(id, {kA});
  watcher_->remove_listener(id);
  sim_->run_until(kHorizon);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(watcher_->listener_count(), 0u);
  // The provider-side subscription is retained (bounded by market count).
  EXPECT_EQ(watcher_->provider_subscriptions(), 1u);
}

TEST_F(MarketWatcherTest, HourTickArrivesAsTypedTrigger) {
  std::vector<sim::SimTime> ticks;
  const auto id = add_listener([&](const MarketWatcher::Trigger& t) {
    ASSERT_EQ(t.kind, MarketWatcher::TriggerKind::kHourBoundary);
    ticks.push_back(sim_->now());
  });
  const auto ev = watcher_->schedule_hour_tick(id, 2 * kHour);
  (void)ev;
  watcher_->schedule_hour_tick(id, 4 * kHour);
  sim_->run_until(kHorizon);
  EXPECT_EQ(ticks, (std::vector<sim::SimTime>{2 * kHour, 4 * kHour}));
}

TEST_F(MarketWatcherTest, CancelledHourTickNeverFires) {
  int fired = 0;
  const auto id = add_listener(
      [&](const MarketWatcher::Trigger&) { ++fired; });
  auto ev = watcher_->schedule_hour_tick(id, 2 * kHour);
  EXPECT_TRUE(ev.cancel());
  sim_->run_until(kHorizon);
  EXPECT_EQ(fired, 0);
}

// The interest index, driven through push-fed markets so each test controls
// every price step synchronously.
struct InterestIndexTest : ::testing::Test {
  sim::RngFactory rng{7};
  sim::Simulation sim;
  cloud::CloudProvider provider{sim, rng};
  const MarketId pa{"push-a", InstanceSize::kSmall};
  const MarketId pb{"push-b", InstanceSize::kSmall};
  std::unique_ptr<MarketWatcher> watcher;
  std::vector<std::unique_ptr<FnListener>> owned;
  std::vector<int> order;  ///< tags of the listeners delivered to, in order

  void SetUp() override {
    provider.add_live_market(pa, 0.06);
    provider.add_live_market(pb, 0.06);
    provider.start();
    provider.market(pa).prime(0.02);
    provider.market(pb).prime(0.05);
    watcher = std::make_unique<MarketWatcher>(sim, provider);
  }

  /// A listener that records `tag` on every price trigger, then runs `also`.
  MarketWatcher::ListenerId tagged(int tag, std::function<void()> also = {}) {
    owned.push_back(std::make_unique<FnListener>(
        [this, tag, also = std::move(also)](const MarketWatcher::Trigger& t) {
          if (t.kind != MarketWatcher::TriggerKind::kPriceChange) return;
          order.push_back(tag);
          if (also) also();
        }));
    return watcher->add_listener(owned.back().get());
  }

  std::vector<int> step(const MarketId& market, double price) {
    order.clear();
    provider.market(market).push_price(price);
    return order;
  }
};

using Interest = MarketWatcher::Interest;

TEST_F(InterestIndexTest, DeliversAlwaysAndAboveHitsInWatchOrder) {
  // kAlways and kAbove recipients interleave in watch order, whatever the
  // edges; kNone listeners and kAbove listeners above the price are skipped.
  const auto l1 = tagged(1);  // kAlways (the default)
  const auto l2 = tagged(2);
  const auto l3 = tagged(3);
  const auto l4 = tagged(4);
  const auto l5 = tagged(5);
  const auto l6 = tagged(6);
  for (const auto id : {l1, l2, l3, l4, l5}) watcher->watch(id, {pa});
  watcher->watch(l6, {pb, pa});
  watcher->set_interest(l2, Interest::above(provider.index(pa), 0.05));
  watcher->set_interest(l3, Interest::above(provider.index(pa), 0.01));
  watcher->set_interest(l4, Interest::none());
  // Other market only.
  watcher->set_interest(l6, Interest::above(provider.index(pb), 0.0));

  EXPECT_EQ(step(pa, 0.03), (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(step(pa, 0.06), (std::vector<int>{1, 2, 3, 5}));
  EXPECT_EQ(step(pb, 0.04), (std::vector<int>{6}));
  // Watch order, not id order, decides within a market.
  const auto l7 = tagged(7);
  watcher->watch(l7, {pb});
  watcher->watch(l1, {pb});
  EXPECT_EQ(step(pb, 0.05), (std::vector<int>{6, 7, 1}));
}

TEST_F(InterestIndexTest, EdgeIsStrict) {
  const auto id = tagged(1);
  watcher->watch(id, {pa});
  watcher->set_interest(id, Interest::above(provider.index(pa), 0.03));
  EXPECT_TRUE(step(pa, 0.03).empty());  // p1 == edge: not above
  EXPECT_EQ(step(pa, std::nextafter(0.03, 1.0)), (std::vector<int>{1}));
  EXPECT_TRUE(step(pa, 0.01).empty());
}

TEST_F(InterestIndexTest, StepWithoutInterestedListenersDeliversNothing) {
  const auto id = tagged(1);
  watcher->watch(id, {pa, pb});
  watcher->set_interest(id, Interest::none());
  EXPECT_TRUE(step(pa, 0.5).empty());
  // A kAbove interest in a market the listener does not watch is inert.
  const auto other = tagged(2);
  watcher->watch(other, {pb});
  watcher->set_interest(other, Interest::above(provider.index(pa), 0.0));
  EXPECT_TRUE(step(pa, 0.6).empty());
  EXPECT_EQ(watcher->stats().price_steps, 2u);
  EXPECT_EQ(watcher->stats().deliveries, 0u);
  // Back to kAlways: delivered again, and counted.
  watcher->set_interest(id, Interest::always());
  EXPECT_EQ(step(pb, 0.07), (std::vector<int>{1}));
  EXPECT_EQ(watcher->stats().price_steps, 3u);
  EXPECT_EQ(watcher->stats().deliveries, 1u);
}

TEST_F(InterestIndexTest, InterestChangedMidDispatchAppliesFromNextStep) {
  // A step's recipients are fixed when it begins. A listener that gains
  // interest mid-dispatch is not added to the step; one that loses it is
  // still delivered (a superset delivery is harmless by contract).
  MarketWatcher::ListenerId gains = 0;
  MarketWatcher::ListenerId loses = 0;
  MarketWatcher::ListenerId self = 0;
  self = tagged(1, [&] {
    watcher->set_interest(gains, Interest::always());
    watcher->set_interest(loses, Interest::none());
    watcher->set_interest(self, Interest::above(provider.index(pa), 0.5));
  });
  gains = tagged(2);
  loses = tagged(3);
  for (const auto id : {self, gains, loses}) watcher->watch(id, {pa});
  watcher->set_interest(gains, Interest::none());

  EXPECT_EQ(step(pa, 0.03), (std::vector<int>{1, 3}));
  EXPECT_EQ(step(pa, 0.04), (std::vector<int>{2}));
  EXPECT_EQ(step(pa, 0.51), (std::vector<int>{1, 2}));
}

TEST_F(InterestIndexTest, TombstonedListenersAreSkippedAndInert) {
  MarketWatcher::ListenerId victim = 0;
  const auto killer = tagged(1, [&] { watcher->remove_listener(victim); });
  victim = tagged(2);
  const auto bystander = tagged(3);
  for (const auto id : {killer, victim, bystander}) watcher->watch(id, {pa});
  watcher->set_interest(victim, Interest::above(provider.index(pa), 0.0));

  // Removed mid-dispatch, after the step collected it: still skipped.
  EXPECT_EQ(step(pa, 0.03), (std::vector<int>{1, 3}));
  EXPECT_EQ(watcher->listener_count(), 2u);
  // A tombstoned id accepts no new watch or interest, and ids are never
  // reused by later registrations.
  watcher->watch(victim, {pb});
  watcher->set_interest(victim, Interest::always());
  const auto late = tagged(4);
  EXPECT_GT(late, victim);
  watcher->watch(late, {pa});
  EXPECT_EQ(step(pa, 0.04), (std::vector<int>{1, 3, 4}));
  EXPECT_TRUE(step(pb, 0.01).empty());
}

TEST_F(InterestIndexTest, ReentrantDispatchKeepsOuterBatchIntact) {
  // A listener's on_trigger may reentrantly dispatch another price change.
  // The nested step collects and delivers its own batch without touching
  // the outer one: every listener receives exactly its own market's
  // trigger, recipients after the reentry point included.
  std::vector<std::pair<MarketId, double>> seen_a, seen_b, seen_c;
  FnListener listener_a([&](const MarketWatcher::Trigger& t) {
    seen_a.emplace_back(provider.market(t.market).id(), t.price);
  });
  FnListener reentrant([&](const MarketWatcher::Trigger&) {
    provider.market(pb).push_price(0.01);
  });
  FnListener listener_b([&](const MarketWatcher::Trigger& t) {
    seen_b.emplace_back(provider.market(t.market).id(), t.price);
  });
  FnListener listener_c([&](const MarketWatcher::Trigger& t) {
    seen_c.emplace_back(provider.market(t.market).id(), t.price);
  });
  const auto id_a = watcher->add_listener(&listener_a);
  const auto id_r = watcher->add_listener(&reentrant);
  const auto id_b = watcher->add_listener(&listener_b);
  const auto id_c = watcher->add_listener(&listener_c);
  watcher->watch(id_a, {pa});
  watcher->watch(id_r, {pa});
  watcher->watch(id_c, {pa});
  watcher->watch(id_b, {pb});
  watcher->set_interest(id_c, Interest::above(provider.index(pa), 0.0));

  provider.market(pa).push_price(0.03);

  ASSERT_EQ(seen_a.size(), 1u);
  EXPECT_EQ(seen_a[0], (std::pair{pa, 0.03}));
  ASSERT_EQ(seen_b.size(), 1u);
  EXPECT_EQ(seen_b[0], (std::pair{pb, 0.01}));
  ASSERT_EQ(seen_c.size(), 1u);
  EXPECT_EQ(seen_c[0], (std::pair{pa, 0.03}));
  EXPECT_EQ(watcher->stats().price_steps, 2u);
  EXPECT_EQ(watcher->stats().deliveries, 4u);
}

TEST(CrossingDetector, FirstObservationBelowIsSteadyState) {
  CrossingDetector d;
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
}

TEST(CrossingDetector, FirstObservationAboveIsAnUpEdge) {
  CrossingDetector d;
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kUp);
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kNone);
}

TEST(CrossingDetector, ReportsEachTransitionOnce) {
  CrossingDetector d;
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kUp);
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kNone);
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kDown);
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
}

TEST(CrossingDetector, ResetForgetsHistory) {
  CrossingDetector d;
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kUp);
  d.reset();
  // After reset, a below-threshold observation is steady state again...
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
  d.reset();
  // ...and an above-threshold one is a fresh up edge.
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kUp);
}

}  // namespace
}  // namespace spothost::sched
