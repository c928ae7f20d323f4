// PlacementPolicy — the "where to move" layer. Covers the default
// ScopedPlacementPolicy's selection rules and, as the extension-point proof,
// a toy "always-cheapest-region" policy plugged in through
// SchedulerConfig::placement and exercised end-to-end through a CloudScheduler
// run without touching scheduler or migration-engine internals.
#include "sched/placement.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "cloud/billing.hpp"
#include "sched/baselines.hpp"
#include "sched/scheduler.hpp"
#include "simcore/simulation.hpp"
#include "workload/service.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;
using sim::kHour;

const MarketId kHome{"us-east-1a", InstanceSize::kSmall};
const MarketId kAway{"us-east-1b", InstanceSize::kSmall};
constexpr sim::SimTime kHorizon = 2 * kDay;

struct Step {
  sim::SimTime at;
  double price;
};

/// Toy extension policy: always bid in the spot market of the home size
/// whose region currently has the lowest spot price, regardless of the
/// configured scope; on-demand fallback in the cheapest on-demand region.
class CheapestRegionPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "cheapest-region";
  }

  [[nodiscard]] std::vector<MarketId> watched_markets(
      const cloud::CloudProvider& provider,
      const SchedulerConfig& config) const override {
    std::vector<MarketId> out;
    for (const auto& region : provider.regions()) {
      const MarketId m{region, config.home_market.size};
      if (provider.has_market(m)) out.push_back(m);
    }
    return out;
  }

  [[nodiscard]] std::optional<Placement> choose_spot(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const override {
    std::optional<Placement> best;
    double best_eff = 0.0;
    for (const auto& m : watched_markets(provider, config)) {
      if (query.exclude && m == *query.exclude) continue;
      const double eff = effective_spot_price(provider, m, query.units_needed);
      if (eff >= query.max_effective_price) continue;
      if (!best || eff < best_eff) {
        best = Placement{m, /*on_demand=*/false, config.bid.bid_for(provider, m)};
        best_eff = eff;
      }
    }
    return best;
  }

  [[nodiscard]] Placement choose_on_demand(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const override {
    (void)query;
    const std::string region = cheapest_on_demand_region(
        provider, provider.regions(), config.home_market.size);
    return Placement{MarketId{region, config.home_market.size},
                     /*on_demand=*/true, 0.0};
  }
};

class PlacementTest : public ::testing::Test {
 protected:
  void build(std::vector<Step> home_steps,
             std::vector<std::pair<MarketId, std::vector<Step>>> extra = {}) {
    rng_ = std::make_unique<sim::RngFactory>(99);
    sim_ = std::make_unique<sim::Simulation>();
    provider_ = std::make_unique<cloud::CloudProvider>(*sim_, *rng_);
    add_market(kHome, std::move(home_steps), 0.06);
    for (auto& [market, steps] : extra) {
      add_market(market, std::move(steps),
                 cloud::on_demand_price(market.size, market.region));
    }
    cloud::AllocationLatency lat;
    lat.on_demand_mean_s = 95.0;
    lat.on_demand_cv = 0.0;
    lat.spot_mean_s = 240.0;
    lat.spot_cv = 0.0;
    for (const auto& region : provider_->regions()) {
      provider_->set_allocation_latency(region, lat);
    }
    provider_->start();
    service_ = std::make_unique<workload::AlwaysOnService>(
        "svc", virt::default_spec_for_memory(1.7, 8.0));
  }

  void add_market(const MarketId& market, std::vector<Step> steps, double od) {
    trace::PriceTrace t;
    for (const auto& s : steps) t.append(s.at, s.price);
    t.set_end(kHorizon);
    provider_->add_market(market, std::move(t), od);
  }

  void run_with(SchedulerConfig cfg, sim::SimTime until = kHorizon) {
    cfg.timing_jitter_cv = 0.0;
    scheduler_ = std::make_unique<CloudScheduler>(*sim_, *provider_, *service_,
                                                  cfg, rng_->stream("timing"));
    scheduler_->start();
    sim_->run_until(until);
    provider_->finalize(until);
    scheduler_->finalize(until);
  }

  std::unique_ptr<sim::RngFactory> rng_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<workload::AlwaysOnService> service_;
  std::unique_ptr<CloudScheduler> scheduler_;
};

TEST_F(PlacementTest, DefaultPolicyIsScoped) {
  const SchedulerConfig cfg = proactive_config(kHome);
  const auto policy = placement_policy_for(cfg);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->name(), "scoped");
  // The default is shared: repeated lookups hand out the same instance.
  EXPECT_EQ(policy.get(), placement_policy_for(cfg).get());
}

TEST_F(PlacementTest, ConfiguredPolicyWinsOverDefault) {
  SchedulerConfig cfg = proactive_config(kHome);
  const auto custom = std::make_shared<const CheapestRegionPolicy>();
  cfg.placement = custom;
  EXPECT_EQ(placement_policy_for(cfg).get(), custom.get());
}

TEST_F(PlacementTest, BuilderCarriesPlacementPolicy) {
  const auto custom = std::make_shared<const CheapestRegionPolicy>();
  const SchedulerConfig cfg{.home_market = kHome, .placement = custom};
  EXPECT_EQ(cfg.placement.get(), custom.get());
}

TEST_F(PlacementTest, ScopedChoosesCheapestEffectiveMarket) {
  build({{0, 0.03}}, {{kAway, {{0, 0.01}}}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.scope = MarketScope::kMultiRegion;
  const ScopedPlacementPolicy policy;
  PlacementQuery query;
  query.max_effective_price = 0.06;
  const auto spot = policy.choose_spot(*provider_, cfg, query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->market, kAway);
  EXPECT_FALSE(spot->on_demand);
  EXPECT_GT(spot->bid, 0.0);
}

TEST_F(PlacementTest, ScopedHonoursExcludeAndCeiling) {
  build({{0, 0.03}}, {{kAway, {{0, 0.01}}}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.scope = MarketScope::kMultiRegion;
  const ScopedPlacementPolicy policy;
  PlacementQuery query;
  query.max_effective_price = 0.06;
  query.exclude = kAway;
  const auto spot = policy.choose_spot(*provider_, cfg, query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->market, kHome);

  query.exclude.reset();
  query.max_effective_price = 0.005;  // nobody qualifies
  EXPECT_FALSE(policy.choose_spot(*provider_, cfg, query).has_value());
}

TEST_F(PlacementTest, ScopedOnDemandFallsBackToQueryRegion) {
  build({{0, 0.03}}, {{kAway, {{0, 0.01}}}});
  const SchedulerConfig cfg = proactive_config(kHome);
  const ScopedPlacementPolicy policy;
  PlacementQuery query;
  query.fallback_region = "us-east-1b";
  const auto od = policy.choose_on_demand(*provider_, cfg, query);
  EXPECT_TRUE(od.on_demand);
  EXPECT_EQ(od.market.region, "us-east-1b");

  query.fallback_region.clear();
  EXPECT_EQ(policy.choose_on_demand(*provider_, cfg, query).market.region,
            kHome.region);
}

// The extension-point proof: a custom policy changes WHERE the scheduler
// goes, end to end, with zero changes to CloudScheduler or MigrationEngine.
TEST_F(PlacementTest, CustomPolicyDrivesInitialAcquisitionEndToEnd) {
  // Home spot costs 0.05; the away region sits at 0.01 the whole run. The
  // default single-market proactive config would stay home; the toy policy
  // must land the service in the away region from the start.
  build({{0, 0.05}}, {{kAway, {{0, 0.01}}}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.placement = std::make_shared<const CheapestRegionPolicy>();
  run_with(cfg);

  EXPECT_EQ(scheduler_->placement().name(), "cheapest-region");
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
  ASSERT_NE(scheduler_->current_instance(), cloud::kInvalidInstance);
  EXPECT_EQ(provider_->instance(scheduler_->current_instance()).market, kAway);
  EXPECT_EQ(scheduler_->stats().forced, 0);
}

TEST_F(PlacementTest, DefaultPolicySameWorldStaysHome) {
  build({{0, 0.05}}, {{kAway, {{0, 0.01}}}});
  run_with(proactive_config(kHome));  // kSingleMarket scope, no custom policy
  EXPECT_EQ(scheduler_->placement().name(), "scoped");
  ASSERT_NE(scheduler_->current_instance(), cloud::kInvalidInstance);
  EXPECT_EQ(provider_->instance(scheduler_->current_instance()).market, kHome);
}

}  // namespace
}  // namespace spothost::sched
