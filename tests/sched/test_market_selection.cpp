#include "sched/market_selection.hpp"
#include "simcore/simulation.hpp"
#include "trace/stats.hpp"

#include <gtest/gtest.h>

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;
using sim::kHour;

// Two regions x two sizes with fixed prices chosen to exercise the
// effective-price packing logic.
class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest() : rng_(1), provider_(sim_, rng_) {
    add("us-east-1a", InstanceSize::kSmall, 0.030, 0.06);
    add("us-east-1a", InstanceSize::kLarge, 0.080, 0.24);  // 0.02/unit
    add("eu-west-1a", InstanceSize::kSmall, 0.010, 0.069);
    add("eu-west-1a", InstanceSize::kLarge, 0.200, 0.276);
    provider_.start();
  }

  void add(const std::string& region, InstanceSize size, double spot, double od) {
    trace::PriceTrace t;
    t.append(0, spot);
    t.set_end(30 * kDay);
    provider_.add_market(MarketId{region, size}, std::move(t), od);
  }

  [[nodiscard]] cloud::MarketIndex idx(const std::string& region,
                                       InstanceSize size) const {
    return provider_.index(MarketId{region, size});
  }

  sim::Simulation sim_;
  sim::RngFactory rng_;
  cloud::CloudProvider provider_;
};

TEST_F(SelectionTest, EffectivePriceDividesByCapacity) {
  // Hosting a 1-unit service on the large box costs its share: 0.08/4.
  EXPECT_DOUBLE_EQ(
      effective_spot_price(provider_, {"us-east-1a", InstanceSize::kLarge}, 1),
      0.02);
  EXPECT_DOUBLE_EQ(
      effective_spot_price(provider_, {"us-east-1a", InstanceSize::kSmall}, 1),
      0.03);
  // A 4-unit service on a small box still pays 4 small-unit shares.
  EXPECT_DOUBLE_EQ(
      effective_spot_price(provider_, {"us-east-1a", InstanceSize::kLarge}, 4),
      0.08);
}

TEST_F(SelectionTest, EffectivePriceRejectsBadUnits) {
  EXPECT_THROW(
      effective_spot_price(provider_, {"us-east-1a", InstanceSize::kSmall}, 0),
      std::invalid_argument);
}

TEST_F(SelectionTest, CandidateMarketsRespectScope) {
  const MarketId home{"us-east-1a", InstanceSize::kSmall};
  EXPECT_EQ(candidate_markets(provider_, MarketScope::kSingleMarket, home, {}),
            std::vector<MarketId>{home});
  EXPECT_EQ(
      candidate_markets(provider_, MarketScope::kMultiMarket, home, {}).size(), 2u);
  EXPECT_EQ(
      candidate_markets(provider_, MarketScope::kMultiRegion, home, {}).size(), 4u);
  EXPECT_EQ(candidate_markets(provider_, MarketScope::kMultiRegion, home,
                              {"eu-west-1a"})
                .size(),
            2u);
}

TEST_F(SelectionTest, CandidateIndicesFollowCandidateMarkets) {
  const MarketId home{"us-east-1a", InstanceSize::kSmall};
  for (const auto scope : {MarketScope::kSingleMarket, MarketScope::kMultiMarket,
                           MarketScope::kMultiRegion}) {
    const auto ids = candidate_markets(provider_, scope, home, {});
    const auto indices = candidate_indices(provider_, scope, home, {});
    ASSERT_EQ(indices.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(indices[i], provider_.index(ids[i]));
    }
  }
}

TEST_F(SelectionTest, BestMarketPicksCheapestEffective) {
  const auto candidates =
      candidate_indices(provider_, MarketScope::kMultiMarket,
                        {"us-east-1a", InstanceSize::kSmall}, {});
  SelectionOptions opts;
  opts.units_needed = 1;
  opts.max_effective_price = 0.06;
  const auto best = best_spot_market(provider_, candidates, opts);
  ASSERT_TRUE(best.has_value());
  // The large box's per-unit share (0.02) beats the small market (0.03).
  EXPECT_EQ(*best, idx("us-east-1a", InstanceSize::kLarge));
}

TEST_F(SelectionTest, ThresholdExcludesExpensiveMarkets) {
  const auto candidates =
      candidate_indices(provider_, MarketScope::kMultiMarket,
                        {"us-east-1a", InstanceSize::kSmall}, {});
  SelectionOptions opts;
  opts.units_needed = 1;
  opts.max_effective_price = 0.015;  // below everything
  EXPECT_FALSE(best_spot_market(provider_, candidates, opts).has_value());
}

TEST_F(SelectionTest, ExcludeSkipsCurrentMarket) {
  const auto candidates =
      candidate_indices(provider_, MarketScope::kMultiMarket,
                        {"us-east-1a", InstanceSize::kSmall}, {});
  SelectionOptions opts;
  opts.units_needed = 1;
  opts.max_effective_price = 0.06;
  opts.exclude = idx("us-east-1a", InstanceSize::kLarge);
  const auto best = best_spot_market(provider_, candidates, opts);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, idx("us-east-1a", InstanceSize::kSmall));
}

TEST_F(SelectionTest, MultiRegionFindsForeignBargain) {
  const auto candidates =
      candidate_indices(provider_, MarketScope::kMultiRegion,
                        {"us-east-1a", InstanceSize::kSmall}, {});
  SelectionOptions opts;
  opts.units_needed = 1;
  opts.max_effective_price = 0.06;
  const auto best = best_spot_market(provider_, candidates, opts);
  ASSERT_TRUE(best.has_value());
  // eu-west small at 0.010/unit wins across regions.
  EXPECT_EQ(*best, idx("eu-west-1a", InstanceSize::kSmall));
}

TEST_F(SelectionTest, CheapestOnDemandRegion) {
  EXPECT_EQ(cheapest_on_demand_region(provider_, {"us-east-1a", "eu-west-1a"},
                                      InstanceSize::kSmall),
            "us-east-1a");
  EXPECT_THROW(cheapest_on_demand_region(provider_, {}, InstanceSize::kSmall),
               std::invalid_argument);
}

TEST_F(SelectionTest, EffectiveOnDemandPrice) {
  EXPECT_DOUBLE_EQ(
      effective_on_demand_price(provider_, "us-east-1a", InstanceSize::kSmall),
      0.06);
  EXPECT_DOUBLE_EQ(
      effective_on_demand_price(provider_, "eu-west-1a", InstanceSize::kSmall),
      0.069);
}

TEST_F(SelectionTest, TrailingStddevZeroForFlatMarket) {
  sim_.run_until(kDay);
  EXPECT_DOUBLE_EQ(
      trailing_stddev(provider_, idx("us-east-1a", InstanceSize::kSmall), kDay,
                      3 * kDay),
      0.0);
}

TEST(SelectionStability, TrailingStddevWindowsAtOneInstantDoNotAlias) {
  sim::Simulation sim;
  sim::RngFactory rng(3);
  cloud::CloudProvider provider(sim, rng);
  // A stepping market, so each window has its own volatility.
  trace::PriceTrace t;
  for (int i = 0; i < 96; ++i) t.append(i * kHour, 0.01 + 0.001 * (i % 7) * (i % 5));
  t.set_end(5 * kDay);
  const MarketId id{"us-east-1a", InstanceSize::kSmall};
  provider.add_market(id, t, 0.06);
  const cloud::MarketIndex m = provider.index(id);
  const sim::SimTime now = 3 * kDay;
  for (int round = 0; round < 2; ++round) {
    for (const sim::SimTime window : {kDay, 3 * kDay, 6 * kHour}) {
      EXPECT_EQ(trailing_stddev(provider, m, now, window),
                trace::trace_stddev(t, now - window, now));
    }
  }
  EXPECT_NE(trailing_stddev(provider, m, now, kDay),
            trailing_stddev(provider, m, now, 3 * kDay));
}

TEST(SelectionStability, PushFedTrailingStddevFollowsCommits) {
  sim::Simulation sim;
  sim::RngFactory rng(3);
  cloud::CloudProvider provider(sim, rng);
  const MarketId id{"us-east-1a", InstanceSize::kSmall};
  provider.add_live_market(id, 0.5);
  provider.start();
  const cloud::MarketIndex m = provider.index(id);
  cloud::SpotMarket& market = provider.market(m);
  market.prime(0.02);
  sim.run_until(5 * sim::kMinute);
  market.push_price(0.04);
  sim.run_until(10 * sim::kMinute);
  const sim::SimTime now = sim.now();
  const auto fresh = [&] {
    const auto& t = market.price_trace();
    return trace::trace_stddev(t, 0, std::min(now, t.end()));
  };

  // The last commit was at 5 min: the window is [0, 5 min), one price.
  const double before = trailing_stddev(provider, m, now, kDay);
  EXPECT_EQ(before, fresh());
  EXPECT_EQ(before, 0.0);
  // A commit at now carries the trace (and the window) to now.
  market.push_price(0.09);
  const double committed = trailing_stddev(provider, m, now, kDay);
  EXPECT_EQ(committed, fresh());
  EXPECT_GT(committed, 0.0);
  // An amend at the same instant rewrites the point at now, outside
  // [0, now); the answer still matches a fresh walk.
  market.push_price(0.30);
  EXPECT_EQ(trailing_stddev(provider, m, now, kDay), fresh());
}

TEST(SelectionStability, StabilityPenaltyRedirectsChoice) {
  // Build a dedicated provider where the cheapest market is wildly volatile.
  sim::Simulation sim;
  sim::RngFactory rng(2);
  cloud::CloudProvider provider(sim, rng);
  trace::PriceTrace volatile_cheap;
  for (int i = 0; i < 48; ++i) {
    volatile_cheap.append(i * kHour, (i % 2 == 0) ? 0.005 : 0.055);
  }
  volatile_cheap.set_end(3 * kDay);
  trace::PriceTrace stable_mid;
  stable_mid.append(0, 0.030);
  stable_mid.set_end(3 * kDay);
  provider.add_market({"us-east-1a", cloud::InstanceSize::kSmall},
                      std::move(volatile_cheap), 0.06);
  provider.add_market({"us-east-1b", cloud::InstanceSize::kSmall},
                      std::move(stable_mid), 0.06);
  provider.start();
  // Land on a cheap phase of the volatile market (even hour -> 0.005).
  sim.run_until(46 * kHour + 30 * sim::kMinute);

  const std::vector<cloud::MarketIndex> candidates{0, 1};
  SelectionOptions greedy;
  greedy.units_needed = 1;
  greedy.max_effective_price = 0.06;
  greedy.now = sim.now();
  const auto g = best_spot_market(provider, candidates, greedy);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(provider.market(*g).id().region, "us-east-1a");  // greedy chases the cheap price

  SelectionOptions stable = greedy;
  stable.stability = StabilityPolicy::kPenalizeVolatility;
  stable.stability_penalty_weight = 2.0;
  stable.stability_window = 2 * kDay;
  const auto s = best_spot_market(provider, candidates, stable);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(provider.market(*s).id().region, "us-east-1b");  // prefers the calm one
}

TEST(Selection, ScopeNames) {
  EXPECT_EQ(to_string(MarketScope::kSingleMarket), "single-market");
  EXPECT_EQ(to_string(MarketScope::kMultiRegion), "multi-region");
}

}  // namespace
}  // namespace spothost::sched
