// Policy zoo (sched/policy_zoo.hpp, sched/bidding.hpp BidStrategy): knob
// validation, selection behaviour of the portfolio / revocation-aware /
// forecast-bid strategies, byte-transparency of the BidStrategy seam, and
// per-policy same-seed determinism. bench_ablation_policies puts the same
// five policies on the cost-vs-unavailability frontier; tests here pin the
// properties the frontier relies on.
#include "sched/policy_zoo.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "cloud/billing.hpp"
#include "metrics/experiment.hpp"
#include "metrics/sweep.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"
#include "sched/baselines.hpp"
#include "sched/bidding.hpp"
#include "sched/scheduler.hpp"
#include "simcore/simulation.hpp"
#include "workload/service.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;
using sim::kHour;
using sim::kMinute;

const MarketId kHome{"us-east-1a", InstanceSize::kSmall};
const MarketId kAway{"us-east-1b", InstanceSize::kSmall};
constexpr sim::SimTime kHorizon = 2 * kDay;

struct Step {
  sim::SimTime at;
  double price;
};

class PolicyZooTest : public ::testing::Test {
 protected:
  void build(std::vector<Step> home_steps,
             std::vector<std::pair<MarketId, std::vector<Step>>> extra = {}) {
    rng_ = std::make_unique<sim::RngFactory>(99);
    sim_ = std::make_unique<sim::Simulation>();
    provider_ = std::make_unique<cloud::CloudProvider>(*sim_, *rng_);
    add_market(kHome, std::move(home_steps), 0.06);
    for (auto& [market, steps] : extra) {
      add_market(market, std::move(steps), 0.06);
    }
    provider_->start();
  }

  void add_market(const MarketId& market, std::vector<Step> steps, double od) {
    trace::PriceTrace t;
    for (const auto& s : steps) t.append(s.at, s.price);
    t.set_end(kHorizon);
    provider_->add_market(market, std::move(t), od);
  }

  /// A multi-market query at `now` with the home on-demand price ceiling.
  [[nodiscard]] PlacementQuery query_at(sim::SimTime now) const {
    PlacementQuery q;
    q.units_needed = 1;
    q.max_effective_price = 0.06;
    q.now = now;
    return q;
  }

  [[nodiscard]] static SchedulerConfig multi_region(SchedulerConfig cfg) {
    cfg.scope = MarketScope::kMultiRegion;
    return cfg;
  }

  std::unique_ptr<sim::RngFactory> rng_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cloud::CloudProvider> provider_;
};

// ---------------------------------------------------------------------------
// Knob validation
// ---------------------------------------------------------------------------

TEST(PolicyZooParams, PortfolioValidatesKnobs) {
  EXPECT_THROW(PortfolioPlacementPolicy({.basket_size = 0}),
               std::invalid_argument);
  EXPECT_THROW(PortfolioPlacementPolicy({.volatility_window = 0}),
               std::invalid_argument);
  EXPECT_THROW(PortfolioPlacementPolicy({.rebalance_period = -kHour}),
               std::invalid_argument);
  EXPECT_THROW(PortfolioPlacementPolicy({.volatility_floor = 0.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(PortfolioPlacementPolicy{});
}

TEST(PolicyZooParams, RevocationAwareValidatesKnobs) {
  EXPECT_THROW(RevocationAwarePolicy({.feature_window = 0}),
               std::invalid_argument);
  EXPECT_THROW(RevocationAwarePolicy({.min_history = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      RevocationAwarePolicy({.feature_window = kHour, .min_history = kDay}),
      std::invalid_argument);
  EXPECT_NO_THROW(RevocationAwarePolicy{});
}

TEST(PolicyZooParams, ForecastBidValidatesKnobs) {
  EXPECT_THROW(ForecastBidPolicy({.lookback = 0}), std::invalid_argument);
  EXPECT_THROW(ForecastBidPolicy({.sample_step = 0}), std::invalid_argument);
  EXPECT_THROW(ForecastBidPolicy({.smoothing = 0.0}), std::invalid_argument);
  EXPECT_THROW(ForecastBidPolicy({.smoothing = 1.5}), std::invalid_argument);
  EXPECT_THROW(ForecastBidPolicy({.headroom = 0.0}), std::invalid_argument);
  EXPECT_THROW(ForecastBidPolicy({.floor_multiple = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(
      ForecastBidPolicy({.floor_multiple = 2.0, .cap_multiple = 1.0}),
      std::invalid_argument);
  EXPECT_NO_THROW(ForecastBidPolicy{});
}

TEST(PolicyZooParams, ConfigValidatesPlacementSalt) {
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.placement_salt = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BidStrategy seam
// ---------------------------------------------------------------------------

TEST(BidStrategySeam, DefaultIsSharedStatic) {
  const SchedulerConfig cfg = proactive_config(kHome);
  const auto strategy = bid_strategy_for(cfg);
  ASSERT_NE(strategy, nullptr);
  EXPECT_EQ(strategy->name(), "static");
  EXPECT_EQ(strategy.get(), bid_strategy_for(cfg).get());
}

TEST(BidStrategySeam, ConfiguredStrategyWinsAndBuilderCarriesIt) {
  const auto forecast = std::make_shared<const ForecastBidPolicy>();
  const SchedulerConfig cfg{
      .home_market = kHome, .bidding = forecast, .placement_salt = 7};
  EXPECT_EQ(bid_strategy_for(cfg).get(), forecast.get());
  EXPECT_EQ(cfg.placement_salt, 7);
}

TEST_F(PolicyZooTest, StaticStrategyMatchesBidPolicy) {
  build({{0, 0.03}});
  for (const auto mode : {BiddingMode::kReactive, BiddingMode::kProactive}) {
    SchedulerConfig cfg = proactive_config(kHome);
    cfg.bid.mode = mode;
    const StaticBidStrategy strategy;
    EXPECT_EQ(strategy.bid_for(*provider_, cfg, kHome, kHour),
              cfg.bid.bid_for(*provider_, kHome));
    EXPECT_EQ(strategy.plans_migrations(cfg), cfg.bid.plans_migrations());
  }
}

// ---------------------------------------------------------------------------
// ForecastBidPolicy
// ---------------------------------------------------------------------------

TEST_F(PolicyZooTest, ForecastBidClampsAndTracksHistory) {
  // Home hovers at 0.02; away spent the last day near 0.05.
  build({{0, 0.02}}, {{kAway, {{0, 0.02}, {kDay, 0.05}}}});
  const SchedulerConfig cfg = proactive_config(kHome);
  const ForecastBidPolicy policy;
  const double pon = provider_->od_price(kHome);

  // No committed history at t=0: fall back to the cap.
  EXPECT_DOUBLE_EQ(policy.bid_for(*provider_, cfg, kHome, 0),
                   policy.params().cap_multiple * pon);

  const double calm = policy.bid_for(*provider_, cfg, kHome, 2 * kDay);
  const double hot = policy.bid_for(*provider_, cfg, kAway, 2 * kDay);
  EXPECT_GE(calm, policy.params().floor_multiple * pon);
  EXPECT_LE(hot, policy.params().cap_multiple * pon);
  EXPECT_GT(hot, calm);  // pricier recent history => higher bid
}

TEST_F(PolicyZooTest, ForecastOfConstantTraceIsThatPrice) {
  build({{0, 0.03}});
  const ForecastBidPolicy policy;
  const auto& price_trace = provider_->market(kHome).price_trace();
  EXPECT_NEAR(policy.forecast(price_trace, 2 * kDay), 0.03, 1e-12);
}

// ---------------------------------------------------------------------------
// RevocationAwarePolicy
// ---------------------------------------------------------------------------

TEST_F(PolicyZooTest, RevocationAwarePrefersCalmMarketOverCheaperSpiky) {
  // Home is marginally cheaper but spikes above the reactive bid (p_on)
  // every few hours; away never crosses it.
  std::vector<Step> spiky;
  for (sim::SimTime t = 0; t < kHorizon; t += 4 * kHour) {
    spiky.push_back({t, 0.019});
    spiky.push_back({t + kHour, 0.08});  // above p_on = 0.06
    spiky.push_back({t + kHour + 30 * kMinute, 0.019});
  }
  build(spiky, {{kAway, {{0, 0.02}}}});
  SchedulerConfig cfg = multi_region(reactive_config(kHome));
  const RevocationAwarePolicy policy;

  const auto placement = policy.choose_spot(*provider_, cfg, query_at(kHorizon));
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->market, kAway);
  EXPECT_DOUBLE_EQ(placement->bid, provider_->od_price(kAway));  // reactive

  // Sanity on the prediction itself: the calm market's TTR saturates at the
  // window, the spiky market's is far shorter.
  const double calm_ttr = policy.predicted_ttr_hours(
      provider_->market(kAway).price_trace(), 0.06, kHorizon);
  const double spiky_ttr = policy.predicted_ttr_hours(
      provider_->market(kHome).price_trace(), 0.06, kHorizon);
  EXPECT_GT(calm_ttr, spiky_ttr);
  EXPECT_GT(spiky_ttr, 0.0);
}

TEST_F(PolicyZooTest, RevocationAwareTieFallsBackToEffectivePrice) {
  build({{0, 0.03}}, {{kAway, {{0, 0.02}}}});  // both calm at the bid
  const SchedulerConfig cfg = multi_region(reactive_config(kHome));
  const RevocationAwarePolicy policy;
  const auto placement = policy.choose_spot(*provider_, cfg, query_at(kHorizon));
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->market, kAway);  // cheaper of the tied pair
}

TEST_F(PolicyZooTest, RevocationAwareWithNoHistoryRanksByPrice) {
  build({{0, 0.03}}, {{kAway, {{0, 0.02}}}});
  const SchedulerConfig cfg = multi_region(reactive_config(kHome));
  const RevocationAwarePolicy policy;
  // At t=0 no market has min_history of committed prices: TTR is 0 for all.
  const auto placement = policy.choose_spot(*provider_, cfg, query_at(0));
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->market, kAway);
}

// ---------------------------------------------------------------------------
// PortfolioPlacementPolicy
// ---------------------------------------------------------------------------

TEST_F(PolicyZooTest, PortfolioHonorsExcludeAvoidAndCeiling) {
  build({{0, 0.02}}, {{kAway, {{0, 0.03}}}});
  const SchedulerConfig cfg = multi_region(proactive_config(kHome));
  const PortfolioPlacementPolicy policy;

  PlacementQuery q = query_at(kHorizon);
  q.exclude = kHome;
  auto placement = policy.choose_spot(*provider_, cfg, q);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->market, kAway);

  q.avoid = {kAway};
  EXPECT_FALSE(policy.choose_spot(*provider_, cfg, q).has_value());

  PlacementQuery priced_out = query_at(kHorizon);
  priced_out.max_effective_price = 0.01;  // nothing qualifies
  EXPECT_FALSE(policy.choose_spot(*provider_, cfg, priced_out).has_value());
}

TEST_F(PolicyZooTest, PortfolioRotatesAcrossBasketDeterministically) {
  build({{0, 0.02}}, {{kAway, {{0, 0.02}}}});  // equal price, equal calm
  SchedulerConfig cfg = multi_region(proactive_config(kHome));
  const PortfolioPlacementPolicy policy;

  std::set<std::string> seen;
  for (int slot = 0; slot < 12; ++slot) {
    const auto q = query_at(kDay + slot * kHour);
    const auto a = policy.choose_spot(*provider_, cfg, q);
    const auto b = policy.choose_spot(*provider_, cfg, q);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->market, b->market);  // same instant => same choice
    seen.insert(a->market.str());
  }
  // Equal weights: the golden-ratio rotation must visit both markets.
  EXPECT_EQ(seen.size(), 2u);

  // The fleet salt shifts the schedule but stays deterministic.
  SchedulerConfig salted = cfg;
  salted.placement_salt = 1;
  std::set<std::string> salted_seen;
  for (int slot = 0; slot < 12; ++slot) {
    const auto q = query_at(kDay + slot * kHour);
    salted_seen.insert(policy.choose_spot(*provider_, salted, q)->market.str());
  }
  EXPECT_EQ(salted_seen.size(), 2u);
}

TEST_F(PolicyZooTest, PortfolioPrefersStableMarketInBasketWeighting) {
  // kAway jitters hard; home is flat. With basket_size 1 the basket keeps
  // only the highest-weight (most stable) market.
  std::vector<Step> noisy;
  for (sim::SimTime t = 0; t < kHorizon; t += 2 * kHour) {
    noisy.push_back({t, 0.015});
    noisy.push_back({t + kHour, 0.055});
  }
  build({{0, 0.03}}, {{kAway, std::move(noisy)}});
  const SchedulerConfig cfg = multi_region(proactive_config(kHome));
  const PortfolioPlacementPolicy policy{{.basket_size = 1}};
  for (int slot = 0; slot < 8; ++slot) {
    const auto placement =
        policy.choose_spot(*provider_, cfg, query_at(kDay + slot * kHour));
    ASSERT_TRUE(placement.has_value());
    EXPECT_EQ(placement->market, kHome);  // stable beats cheap-but-noisy
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism and seam transparency
// ---------------------------------------------------------------------------

Scenario zoo_scenario() {
  Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 5 * kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  scenario.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  return scenario;
}

std::string run_jsonl(const Scenario& scenario, const SchedulerConfig& cfg) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  (void)metrics::run_hosting_scenario(scenario, cfg, nullptr, &tracer);
  return os.str();
}

TEST(PolicyZooDeterminism, SameSeedJsonlIsByteIdenticalPerPolicy) {
  const Scenario scenario = zoo_scenario();
  auto base = proactive_config({"us-east-1a", InstanceSize::kSmall});
  base.scope = MarketScope::kMultiRegion;

  auto portfolio = base;
  portfolio.placement = std::make_shared<const PortfolioPlacementPolicy>();
  auto revocation = reactive_config({"us-east-1a", InstanceSize::kSmall});
  revocation.scope = MarketScope::kMultiRegion;
  revocation.placement = std::make_shared<const RevocationAwarePolicy>();
  auto forecast = base;
  forecast.bidding = std::make_shared<const ForecastBidPolicy>();

  for (const auto& cfg : {portfolio, revocation, forecast}) {
    const std::string first = run_jsonl(scenario, cfg);
    const std::string second = run_jsonl(scenario, cfg);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
  }
}

// The golden-trace guard proper lives in tests/integration/test_trace_golden
// (the pinned hash cannot move); this pins the complementary property — the
// new seam and zoo cost zero RNG draws and zero trace events when not
// selected, so explicitly selecting the default strategy (and constructing
// unused zoo policies on the side) is byte-identical to the null config.
TEST(PolicyZooDeterminism, UnselectedPoliciesLeaveDefaultRunsByteIdentical) {
  const Scenario scenario = zoo_scenario();
  for (auto base : {proactive_config({"us-east-1a", InstanceSize::kSmall}),
                    reactive_config({"us-east-1a", InstanceSize::kSmall})}) {
    base.scope = MarketScope::kMultiRegion;
    const std::string plain = run_jsonl(scenario, base);

    const PortfolioPlacementPolicy unused_portfolio;
    const RevocationAwarePolicy unused_revocation;
    const ForecastBidPolicy unused_forecast;
    auto explicit_static = base;
    explicit_static.bidding = std::make_shared<const StaticBidStrategy>();
    const std::string seamed = run_jsonl(scenario, explicit_static);

    EXPECT_EQ(plain, seamed);
  }
}

// Frontier sanity for the bench: every policy beats all-on-demand on cost,
// stays highly available, and the sweep is execution-order independent.
TEST(PolicyZooFrontier, SmallSweepIsSaneAndExecutionIndependent) {
  const Scenario scenario = zoo_scenario();
  auto base = proactive_config({"us-east-1a", InstanceSize::kSmall});
  base.scope = MarketScope::kMultiRegion;

  auto arms = [&](metrics::Execution execution) {
    metrics::SweepRunner sweep(2, 20150615, execution);
    auto reactive = base;
    reactive.bid = {.mode = BiddingMode::kReactive};
    sweep.add_arm("reactive", scenario, reactive);
    sweep.add_arm("proactive", scenario, base);
    auto portfolio = base;
    portfolio.placement = std::make_shared<const PortfolioPlacementPolicy>();
    sweep.add_arm("portfolio", scenario, portfolio);
    auto revocation = reactive;
    revocation.placement = std::make_shared<const RevocationAwarePolicy>();
    sweep.add_arm("revocation-aware", scenario, revocation);
    auto forecast = base;
    forecast.bidding = std::make_shared<const ForecastBidPolicy>();
    sweep.add_arm("forecast-bid", scenario, forecast);
    return sweep.run_all();
  };

  const auto parallel = arms(metrics::Execution::kParallel);
  const auto serial = arms(metrics::Execution::kSerial);
  ASSERT_EQ(parallel.size(), 5u);
  for (std::size_t a = 0; a < parallel.size(); ++a) {
    EXPECT_GT(parallel[a].normalized_cost_pct.mean, 0.0);
    EXPECT_LT(parallel[a].normalized_cost_pct.mean, 100.0);
    EXPECT_LT(parallel[a].unavailability_pct.mean, 5.0);
    ASSERT_EQ(parallel[a].per_run.size(), serial[a].per_run.size());
    for (std::size_t r = 0; r < parallel[a].per_run.size(); ++r) {
      EXPECT_EQ(parallel[a].per_run[r].total_cost,
                serial[a].per_run[r].total_cost);
      EXPECT_EQ(parallel[a].per_run[r].unavailability_pct,
                serial[a].per_run[r].unavailability_pct);
    }
  }
}

}  // namespace
}  // namespace spothost::sched
