// Scheduler behaviour tests on hand-built deterministic worlds: fixed step
// traces, zero-CV allocation latencies, zero timing jitter. Every scenario
// checks the migration class the paper's Sec. 3.1 rules prescribe.
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>

#include "cloud/billing.hpp"
#include "sched/baselines.hpp"
#include "simcore/simulation.hpp"
#include "workload/service.hpp"

namespace spothost::sched {
namespace {

using cloud::BillingMode;
using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;
using sim::kHour;
using sim::kMinute;
using sim::kSecond;

const MarketId kHome{"us-east-1a", InstanceSize::kSmall};
constexpr sim::SimTime kHorizon = 2 * kDay;

struct Step {
  sim::SimTime at;
  double price;
};

class SchedulerTest : public ::testing::Test {
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
    provider_->set_allocation_latency("us-east-1a", lat);
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

  void run_with(SchedulerConfig cfg, sim::SimTime until = kHorizon,
                bool finalize = true) {
    cfg.timing_jitter_cv = 0.0;
    scheduler_ = std::make_unique<CloudScheduler>(*sim_, *provider_, *service_,
                                                  cfg, rng_->stream("timing"));
    scheduler_->start();
    sim_->run_until(until);
    if (finalize) {
      provider_->finalize(until);
      scheduler_->finalize(until);
    }
  }

  std::unique_ptr<sim::RngFactory> rng_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<workload::AlwaysOnService> service_;
  std::unique_ptr<CloudScheduler> scheduler_;
};

TEST_F(SchedulerTest, CalmMarketStaysOnSpotForever) {
  build({{0, 0.02}});
  run_with(proactive_config(kHome));
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
  EXPECT_EQ(scheduler_->stats().forced, 0);
  EXPECT_EQ(scheduler_->stats().planned, 0);
  EXPECT_EQ(scheduler_->stats().reverse, 0);
  EXPECT_DOUBLE_EQ(service_->availability().unavailability(), 0.0);
  // Only spot money was spent.
  EXPECT_DOUBLE_EQ(provider_->ledger().total_cost(BillingMode::kOnDemand), 0.0);
  EXPECT_GT(provider_->ledger().total_cost(BillingMode::kSpot), 0.0);
}

TEST_F(SchedulerTest, CalmMarketCostIsSpotHours) {
  build({{0, 0.02}});
  run_with(proactive_config(kHome));
  // Spot instance launches at 240 s and runs to the horizon: 48 started
  // instance-hours at 0.02.
  EXPECT_NEAR(provider_->ledger().total_cost(), 48 * 0.02, 1e-9);
}

TEST_F(SchedulerTest, ReactiveCrossingIsForced) {
  // Spike above p_on from 5h to 8h.
  build({{0, 0.02}, {5 * kHour, 0.10}, {8 * kHour, 0.02}});
  run_with(reactive_config(kHome));
  EXPECT_EQ(scheduler_->stats().forced, 1);
  EXPECT_EQ(scheduler_->stats().planned, 0);
  EXPECT_EQ(scheduler_->stats().reverse, 1);  // back to spot after the spike
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
  EXPECT_GT(service_->availability().total_downtime(), 0);
  EXPECT_EQ(service_->outage_count(workload::OutageCause::kForcedMigration), 1);
}

TEST_F(SchedulerTest, ReactiveForcedDowntimeIsFlushPlusLazyRestore) {
  build({{0, 0.02}, {5 * kHour, 0.10}, {8 * kHour, 0.02}});
  run_with(reactive_config(kHome));  // default combo: CKPT LR + Live
  // Flush <= 10 s bound; on-demand (95 s) beats the 120 s grace; lazy
  // restore adds 20 s. Downtime = flush + restore ~ 30 s.
  const double downtime = sim::to_seconds(service_->availability().total_downtime());
  EXPECT_GT(downtime, 25.0);
  EXPECT_LT(downtime, 40.0);
}

TEST_F(SchedulerTest, ProactiveModerateSpikeIsPlanned) {
  // 0.10 is above p_on (0.06) but below the 4x bid (0.24): voluntary move.
  build({{0, 0.02}, {5 * kHour, 0.10}, {8 * kHour, 0.02}});
  run_with(proactive_config(kHome));
  EXPECT_EQ(scheduler_->stats().forced, 0);
  EXPECT_EQ(scheduler_->stats().planned, 1);
  EXPECT_EQ(scheduler_->stats().reverse, 1);
  // Live migration keeps the outage sub-second per move.
  EXPECT_LT(sim::to_seconds(service_->availability().total_downtime()), 5.0);
}

TEST_F(SchedulerTest, ProactiveBeatsReactiveOnDowntime) {
  const std::vector<Step> steps{{0, 0.02}, {5 * kHour, 0.10}, {8 * kHour, 0.02}};
  build(steps);
  run_with(proactive_config(kHome));
  const auto proactive_down = service_->availability().total_downtime();
  build(steps);
  run_with(reactive_config(kHome));
  const auto reactive_down = service_->availability().total_downtime();
  EXPECT_LT(proactive_down, reactive_down / 2);
}

TEST_F(SchedulerTest, ProactiveSharpSpikeIsForced) {
  // Straight past the 4x bid (0.24): no time for a voluntary move.
  build({{0, 0.02}, {5 * kHour, 0.50}, {8 * kHour, 0.02}});
  run_with(proactive_config(kHome));
  EXPECT_EQ(scheduler_->stats().forced, 1);
  EXPECT_EQ(scheduler_->stats().planned, 0);
  EXPECT_EQ(service_->outage_count(workload::OutageCause::kForcedMigration), 1);
}

TEST_F(SchedulerTest, ShortSpikeIsCancelledNotMigrated) {
  // Price pops above p_on for 80 s — shorter than the 95 s on-demand
  // allocation — then falls back. The proactive scheduler cancels.
  build({{0, 0.02}, {5 * kHour, 0.10}, {5 * kHour + 80 * kSecond, 0.02}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.planned_timing = PlannedTiming::kImmediate;
  run_with(cfg);
  EXPECT_EQ(scheduler_->stats().planned, 0);
  EXPECT_EQ(scheduler_->stats().cancelled_planned, 1);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
  EXPECT_DOUBLE_EQ(service_->availability().unavailability(), 0.0);
}

TEST_F(SchedulerTest, HourEndTimingDelaysPlannedMigration) {
  // Spike starts 5 minutes into a billing instance-hour (the spot instance
  // launched at 240 s, so its hours tick at 240s + k*3600s); with kHourEnd
  // the scheduler rides out the already-paid hour and migrates near its end.
  build({{0, 0.02}, {4 * kHour + 5 * kMinute, 0.10}, {20 * kHour, 0.02}});
  SchedulerConfig cfg = proactive_config(kHome);
  run_with(cfg, 4 * kHour + 10 * kMinute);
  EXPECT_EQ(scheduler_->stats().planned + scheduler_->stats().forced, 0);
}

TEST_F(SchedulerTest, HourEndTimingEventuallyMigrates) {
  build({{0, 0.02}, {4 * kHour + 5 * kMinute, 0.10}, {20 * kHour, 0.02}});
  run_with(proactive_config(kHome), 6 * kHour);
  EXPECT_EQ(scheduler_->stats().planned, 1);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnDemand);
}

TEST_F(SchedulerTest, ReverseMigrationWaitsForBillingHourEnd) {
  // Spike pushes the service to on-demand; price recovers 30 minutes later,
  // but the reverse move is timed to land near the on-demand instance-hour
  // boundary (~1 h after the on-demand launch), not at the price drop.
  build({{0, 0.02}, {4 * kHour, 0.10}, {4 * kHour + 30 * kMinute, 0.02}});
  run_with(proactive_config(kHome), 4 * kHour + 45 * kMinute, /*finalize=*/false);
  EXPECT_EQ(scheduler_->stats().planned, 1);
  EXPECT_EQ(scheduler_->stats().reverse, 0);  // not yet: mid billing hour
  // Continue the same world past the boundary: reverse done.
  sim_->run_until(5 * kHour + 30 * kMinute);
  EXPECT_EQ(scheduler_->stats().reverse, 1);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
}

TEST_F(SchedulerTest, MultiMarketPlannedMovesToCheaperSpot) {
  // Home (small) spikes at 5h; the large market starts expensive (so the
  // initial acquisition stays on the small box) but is cheap by the time the
  // planned migration runs, so the scheduler packs onto the large box
  // instead of falling back to on-demand.
  build({{0, 0.02}, {5 * kHour, 0.10}, {12 * kHour, 0.02}},
        {{MarketId{"us-east-1a", InstanceSize::kLarge},
          {{0, 0.30}, {4 * kHour + 30 * kMinute, 0.02}}}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.scope = MarketScope::kMultiMarket;
  run_with(cfg, 8 * kHour);
  EXPECT_EQ(scheduler_->stats().planned, 1);
  EXPECT_EQ(scheduler_->stats().market_switches, 1);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
  EXPECT_DOUBLE_EQ(provider_->ledger().total_cost(BillingMode::kOnDemand), 0.0);
}

TEST_F(SchedulerTest, SingleMarketPlannedFallsBackToOnDemand) {
  build({{0, 0.02}, {5 * kHour, 0.10}, {12 * kHour, 0.02}});
  run_with(proactive_config(kHome), 8 * kHour);
  EXPECT_EQ(scheduler_->stats().planned, 1);
  EXPECT_EQ(scheduler_->stats().market_switches, 0);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnDemand);
  EXPECT_GT(provider_->ledger().total_cost(BillingMode::kOnDemand), 0.0);
}

TEST_F(SchedulerTest, PureSpotRidesOutTheSpike) {
  build({{0, 0.02}, {5 * kHour, 0.10}, {8 * kHour, 0.02}});
  run_with(pure_spot_config(kHome));
  // No on-demand fallback: the whole excursion is an outage (plus restore
  // and the ~4-minute spot reacquisition).
  const double downtime = sim::to_seconds(service_->availability().total_downtime());
  EXPECT_GT(downtime, 3.0 * 3600.0 - 150.0);
  EXPECT_LT(downtime, 3.0 * 3600.0 + 600.0);
  EXPECT_DOUBLE_EQ(provider_->ledger().total_cost(BillingMode::kOnDemand), 0.0);
  EXPECT_EQ(service_->outage_count(workload::OutageCause::kSpotLoss), 1);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
}

TEST_F(SchedulerTest, PureSpotNeverUpWhenMarketAlwaysAboveBid) {
  build({{0, 0.50}});
  run_with(pure_spot_config(kHome));
  EXPECT_NEAR(service_->availability().unavailability(), 1.0, 1e-9);
}

TEST_F(SchedulerTest, InitialAcquisitionPrefersOnDemandWhenSpotExpensive) {
  build({{0, 0.50}, {10 * kHour, 0.02}});
  run_with(proactive_config(kHome), 5 * kHour);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnDemand);
  EXPECT_DOUBLE_EQ(provider_->ledger().total_cost(BillingMode::kSpot), 0.0);
}

TEST_F(SchedulerTest, RecoversToSpotAfterExpensiveStart) {
  build({{0, 0.50}, {10 * kHour, 0.02}});
  run_with(proactive_config(kHome));
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
  EXPECT_EQ(scheduler_->stats().reverse, 1);
}

TEST_F(SchedulerTest, ForcedConvertsInFlightPlannedMigration) {
  // Spike to 0.10 starts a planned move (immediate timing; on-demand takes
  // 95 s); 60 s later the price blows past the bid. The scheduler converts,
  // reusing the pending on-demand destination.
  build({{0, 0.02},
         {5 * kHour, 0.10},
         {5 * kHour + 60 * kSecond, 0.50},
         {8 * kHour, 0.02}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.planned_timing = PlannedTiming::kImmediate;
  run_with(cfg, 7 * kHour);
  EXPECT_EQ(scheduler_->stats().forced, 1);
  EXPECT_EQ(scheduler_->stats().planned, 0);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnDemand);
  // Exactly one on-demand instance was provisioned (the reused destination).
  int od_count = 0;
  for (const auto& rec : provider_->ledger().records()) {
    if (rec.mode == BillingMode::kOnDemand) ++od_count;
  }
  EXPECT_EQ(od_count, 1);
}

TEST_F(SchedulerTest, RevokedPartialHourNotBilled) {
  build({{0, 0.02}, {5 * kHour, 0.50}, {8 * kHour, 0.02}});
  run_with(reactive_config(kHome), 6 * kHour);
  // Spot launch 240 s; revoked at 5h+120s. Started instance-hours: 5 (the
  // partial 5th hour is free under provider revocation).
  bool found = false;
  for (const auto& rec : provider_->ledger().records()) {
    if (rec.mode == BillingMode::kSpot &&
        rec.cause == cloud::TerminationCause::kProviderRevoked) {
      found = true;
      // Launch 240 s, revoked 5h+120s: four completed instance-hours billed,
      // the in-progress fifth hour free.
      EXPECT_DOUBLE_EQ(rec.cost, 4 * 0.02);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SchedulerTest, StatsAndConfigAccessors) {
  build({{0, 0.02}});
  SchedulerConfig cfg = proactive_config(kHome);
  run_with(cfg, kHour);
  EXPECT_EQ(scheduler_->config().home_market, kHome);
  EXPECT_GT(scheduler_->vm_spec().memory_gb, 0.0);
  EXPECT_NE(scheduler_->current_instance(), cloud::kInvalidInstance);
}

TEST_F(SchedulerTest, UnknownHomeMarketRejected) {
  build({{0, 0.02}});
  SchedulerConfig cfg =
      proactive_config(MarketId{"nowhere-1x", InstanceSize::kSmall});
  EXPECT_THROW(CloudScheduler(*sim_, *provider_, *service_, cfg,
                              rng_->stream("t")),
               std::invalid_argument);
}

TEST_F(SchedulerTest, InvalidConfigRejected) {
  // The constructor is the one validation point: every config, preset or
  // hand-assembled, passes through validate() here.
  build({{0, 0.02}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.reverse_price_margin = -1.0;
  EXPECT_THROW(CloudScheduler(*sim_, *provider_, *service_, cfg,
                              rng_->stream("t")),
               std::invalid_argument);
  const SchedulerConfig no_region{
      .home_market = MarketId{"", InstanceSize::kSmall}};
  EXPECT_THROW(CloudScheduler(*sim_, *provider_, *service_, no_region,
                              rng_->stream("t")),
               std::invalid_argument);
}

TEST_F(SchedulerTest, MechanismComboOrderingOnForcedMigration) {
  // One sharp spike; downtime must rank CKPT > CKPT LR >= live combos' forced
  // (live does not help forced, so CKPT ~ CKPT+Live and LR ~ LR+Live).
  const std::vector<Step> steps{{0, 0.02}, {5 * kHour, 0.50}, {8 * kHour, 0.02}};
  std::map<virt::MechanismCombo, double> downtime;
  for (const auto combo : virt::kAllCombos) {
    build(steps);
    SchedulerConfig cfg = proactive_config(kHome);
    cfg.combo = combo;
    run_with(cfg, 6 * kHour);
    downtime[combo] = sim::to_seconds(service_->availability().total_downtime());
  }
  using MC = virt::MechanismCombo;
  EXPECT_GT(downtime[MC::kCkpt], downtime[MC::kCkptLazy]);
  EXPECT_NEAR(downtime[MC::kCkpt], downtime[MC::kCkptLive], 1.0);
  EXPECT_NEAR(downtime[MC::kCkptLazy], downtime[MC::kCkptLazyLive], 1.0);
}

}  // namespace
}  // namespace spothost::sched
