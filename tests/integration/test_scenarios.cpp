// Multi-market / multi-region scenario integration tests (Figs. 8 and 9).
#include <gtest/gtest.h>

#include "metrics/sweep.hpp"
#include "sched/baselines.hpp"

namespace spothost {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using metrics::SweepRunner;
using sim::kDay;

sched::Scenario two_region_scenario() {
  sched::Scenario s;
  s.horizon = 20 * kDay;
  s.regions = {"us-east-1a", "eu-west-1a"};
  return s;  // all four sizes per region
}

class Scenarios : public ::testing::Test {
 protected:
  const SweepRunner runner_{4, 2024};
};

TEST_F(Scenarios, MultiRegionRunsAndSavesMoney) {
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiRegion;
  cfg.allowed_regions = {"us-east-1a", "eu-west-1a"};
  const auto multi = runner_.run(two_region_scenario(), cfg);
  EXPECT_GT(multi.normalized_cost_pct.mean, 3.0);
  EXPECT_LT(multi.normalized_cost_pct.mean, 40.0);

  // Single-region average over the two regions (Fig. 9's comparison).
  double single_sum = 0.0;
  for (const std::string region : {"us-east-1a", "eu-west-1a"}) {
    auto scfg = sched::proactive_config({region, InstanceSize::kSmall});
    scfg.scope = sched::MarketScope::kMultiMarket;
    single_sum += runner_.run(two_region_scenario(), scfg).normalized_cost_pct.mean;
  }
  EXPECT_LT(multi.normalized_cost_pct.mean, single_sum / 2.0 * 1.05);
}

TEST_F(Scenarios, MultiMarketReducesUnavailabilityVsSingle) {
  sched::Scenario s;
  s.horizon = 20 * kDay;
  s.regions = {"us-east-1a"};
  auto single = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  auto multi = single;
  multi.scope = sched::MarketScope::kMultiMarket;
  const auto a = runner_.run(s, single);
  const auto b = runner_.run(s, multi);
  // Fig. 8(c): more escape routes => no worse availability (allow noise).
  EXPECT_LT(b.unavailability_pct.mean, a.unavailability_pct.mean * 1.5);
}

TEST_F(Scenarios, StabilityAwareSelectionDoesNotExplodeCost) {
  // The paper's future-work extension: penalising volatile markets should
  // trade a little cost for fewer disruptions.
  auto greedy = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  greedy.scope = sched::MarketScope::kMultiRegion;
  auto stable = greedy;
  stable.stability = sched::StabilityPolicy::kPenalizeVolatility;
  stable.stability_penalty_weight = 2.0;
  const auto g = runner_.run(two_region_scenario(), greedy);
  const auto st = runner_.run(two_region_scenario(), stable);
  EXPECT_LT(st.normalized_cost_pct.mean, g.normalized_cost_pct.mean * 2.0);
  EXPECT_LT(st.unavailability_pct.mean, 0.05);
}

TEST_F(Scenarios, EveryScopeKeepsServiceNearlyAlwaysUp) {
  for (const auto scope :
       {sched::MarketScope::kSingleMarket, sched::MarketScope::kMultiMarket,
        sched::MarketScope::kMultiRegion}) {
    auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
    cfg.scope = scope;
    const auto agg = runner_.run(two_region_scenario(), cfg);
    EXPECT_LT(agg.unavailability_pct.mean, 0.05) << to_string(scope);
  }
}

TEST_F(Scenarios, XlargeServiceAlsoHosts) {
  // Bigger VM: bigger checkpoints, longer restores — still four-nines-ish.
  sched::Scenario s;
  s.horizon = 20 * kDay;
  s.regions = {"us-east-1a"};
  const auto agg = runner_.run(
      s, sched::proactive_config({"us-east-1a", InstanceSize::kXLarge}));
  EXPECT_LT(agg.unavailability_pct.mean, 0.1);
  EXPECT_LT(agg.normalized_cost_pct.mean, 50.0);
}

}  // namespace
}  // namespace spothost
