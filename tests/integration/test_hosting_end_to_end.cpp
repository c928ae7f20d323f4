// End-to-end hosting runs over the full synthetic cloud: these assert the
// paper's headline claims as statistical properties over several seeds.
#include <gtest/gtest.h>

#include <map>

#include "metrics/sweep.hpp"
#include "sched/baselines.hpp"

namespace spothost {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using metrics::SweepRunner;
using sim::kDay;

const MarketId kHome{"us-east-1a", InstanceSize::kSmall};

sched::Scenario month() {
  sched::Scenario s;
  s.horizon = 30 * kDay;
  s.regions = {"us-east-1a"};
  s.sizes = {InstanceSize::kSmall};
  return s;
}

class EndToEnd : public ::testing::Test {
 protected:
  const SweepRunner runner_{5, 31337};
};

TEST_F(EndToEnd, HeadlineCostReduction) {
  // "one-third to one-fifth the cost" — allow a generous band around it.
  const auto agg = runner_.run(month(), sched::proactive_config(kHome));
  EXPECT_GT(agg.normalized_cost_pct.mean, 10.0);
  EXPECT_LT(agg.normalized_cost_pct.mean, 45.0);
}

TEST_F(EndToEnd, HeadlineAvailability) {
  // Proactive + CKPT LR + Live keeps unavailability near the four-nines bar.
  const auto agg = runner_.run(month(), sched::proactive_config(kHome));
  EXPECT_LT(agg.unavailability_pct.mean, 0.02);
}

TEST_F(EndToEnd, ProactiveBeatsReactiveOnUnavailability) {
  const auto pro = runner_.run(month(), sched::proactive_config(kHome));
  const auto rea = runner_.run(month(), sched::reactive_config(kHome));
  EXPECT_LT(pro.unavailability_pct.mean, rea.unavailability_pct.mean);
  EXPECT_LT(pro.forced_per_hour.mean, rea.forced_per_hour.mean);
}

TEST_F(EndToEnd, ProactiveCostNoWorseThanReactive) {
  const auto pro = runner_.run(month(), sched::proactive_config(kHome));
  const auto rea = runner_.run(month(), sched::reactive_config(kHome));
  EXPECT_LT(pro.normalized_cost_pct.mean, rea.normalized_cost_pct.mean * 1.1);
}

TEST_F(EndToEnd, PureSpotUnavailabilityIsUnacceptable) {
  const auto spot = runner_.run(month(), sched::pure_spot_config(kHome));
  const auto pro = runner_.run(month(), sched::proactive_config(kHome));
  EXPECT_GT(spot.unavailability_pct.mean, 10.0 * pro.unavailability_pct.mean);
  EXPECT_GT(spot.unavailability_pct.mean, 0.1);
}

TEST_F(EndToEnd, MechanismLadderFig7) {
  // CKPT is the worst; lazy restore rescues it; live halves voluntary moves.
  std::map<virt::MechanismCombo, double> unavail;
  for (const auto combo : virt::kAllCombos) {
    auto cfg = sched::proactive_config(kHome);
    cfg.combo = combo;
    unavail[combo] = runner_.run(month(), cfg).unavailability_pct.mean;
  }
  using MC = virt::MechanismCombo;
  EXPECT_GT(unavail[MC::kCkpt], unavail[MC::kCkptLazy]);
  EXPECT_GT(unavail[MC::kCkpt], unavail[MC::kCkptLive]);
  EXPECT_GT(unavail[MC::kCkptLazy], unavail[MC::kCkptLazyLive]);
  EXPECT_GT(unavail[MC::kCkptLive], unavail[MC::kCkptLazyLive]);
}

TEST_F(EndToEnd, PessimisticParametersHurt) {
  auto cfg = sched::proactive_config(kHome);
  const auto typical = runner_.run(month(), cfg).unavailability_pct.mean;
  cfg.mech = virt::pessimistic_mechanism_params();
  const auto pessimistic = runner_.run(month(), cfg).unavailability_pct.mean;
  EXPECT_GT(pessimistic, typical);
}

TEST_F(EndToEnd, MultiMarketLowersCost) {
  sched::Scenario s;
  s.horizon = 30 * kDay;
  s.regions = {"us-east-1a"};
  s.sizes = {InstanceSize::kSmall, InstanceSize::kMedium, InstanceSize::kLarge,
             InstanceSize::kXLarge};

  // Average the four single-market schemes (Fig. 8's comparison).
  double single_sum = 0.0;
  for (const auto size : cloud::kAllSizes) {
    auto cfg = sched::proactive_config({"us-east-1a", size});
    single_sum += runner_.run(s, cfg).normalized_cost_pct.mean;
  }
  const double single_avg = single_sum / 4.0;

  auto multi_cfg = sched::proactive_config(kHome);
  multi_cfg.scope = sched::MarketScope::kMultiMarket;
  const auto multi = runner_.run(s, multi_cfg);
  EXPECT_LT(multi.normalized_cost_pct.mean, single_avg);
}

TEST_F(EndToEnd, BudgetsAreInternallyConsistent) {
  const auto agg = runner_.run(month(), sched::proactive_config(kHome));
  for (const auto& run : agg.per_run) {
    EXPECT_GE(run.total_cost, run.attributed_cost - 1e-9);
    EXPECT_GE(run.downtime_s, 0.0);
    EXPECT_NEAR(run.unavailability_pct,
                100.0 * run.downtime_s / (run.horizon_hours * 3600.0), 1e-6);
    EXPECT_GE(run.planned + run.reverse, 0);
  }
}

}  // namespace
}  // namespace spothost
