// Tuning your own bidding policy: sweeps the proactive bid multiple k and
// the mechanism combo to expose the cost/availability trade-off surface, the
// way an operator would calibrate the scheduler for their own SLO — then
// plugs a hand-written PlacementPolicy into the scheduler to show the
// "where to move" layer is swappable without touching its internals, and
// lines the shipped policy zoo up against it.
//
// PinnedMarketPolicy below is the worked example from docs/POLICIES.md —
// the policy author's guide walks through it line by line.
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "spothost.hpp"

using namespace spothost;

// A deliberately rigid placement strategy: only ever bid in one pinned spot
// market, on-demand fallback in the query's region. Equivalent to
// kSingleMarket scope, but expressed from outside the library — the same
// three virtuals accommodate portfolio selection, latency-aware placement,
// or anything else an operator dreams up (see DESIGN.md section 4).
class PinnedMarketPolicy final : public sched::PlacementPolicy {
 public:
  explicit PinnedMarketPolicy(cloud::MarketId pin) : pin_(std::move(pin)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "pinned-market";
  }

  [[nodiscard]] std::vector<cloud::MarketId> watched_markets(
      const cloud::CloudProvider&, const sched::SchedulerConfig&) const override {
    return {pin_};
  }

  [[nodiscard]] std::optional<sched::Placement> choose_spot(
      const cloud::CloudProvider& provider, const sched::SchedulerConfig& config,
      const sched::PlacementQuery& query) const override {
    if (query.exclude == pin_) return std::nullopt;
    if (sched::effective_spot_price(provider, pin_, query.units_needed) >=
        query.max_effective_price) {
      return std::nullopt;
    }
    return sched::Placement{pin_, false, config.bid.bid_for(provider, pin_)};
  }

  [[nodiscard]] sched::Placement choose_on_demand(
      const cloud::CloudProvider&, const sched::SchedulerConfig&,
      const sched::PlacementQuery& query) const override {
    return {cloud::MarketId{query.fallback_region, pin_.size}, true, 0.0};
  }

 private:
  cloud::MarketId pin_;
};

int main() {
  const cloud::MarketId home{"us-east-1a", cloud::InstanceSize::kSmall};
  sched::Scenario scenario;
  scenario.horizon = 30 * sim::kDay;
  scenario.regions = {"us-east-1a"};
  const metrics::SweepRunner runner(5, 321);

  std::cout << "== sweep 1: bid multiple k (proactive, CKPT LR + Live) ==\n\n";
  {
    metrics::TextTable table({"k", "cost %", "unavailability %", "forced/hr",
                              "meets 4-nines?"});
    for (const double k : {1.2, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0}) {
      auto cfg = sched::proactive_config(home);
      cfg.bid.proactive_multiple = k;
      const auto agg = runner.run(scenario, cfg);
      table.add_row({metrics::fmt(k, 1),
                     metrics::fmt(agg.normalized_cost_pct.mean, 1),
                     metrics::fmt(agg.unavailability_pct.mean, 4),
                     metrics::fmt(agg.forced_per_hour.mean, 4),
                     agg.unavailability_pct.mean <= 0.01 ? "yes" : "no"});
    }
    table.print(std::cout);
  }

  std::cout << "\n== sweep 2: mechanism combo at k = 4 ==\n\n";
  {
    metrics::TextTable table({"combo", "unavailability %", "degraded s/run"});
    for (const auto combo : virt::kAllCombos) {
      auto cfg = sched::proactive_config(home);
      cfg.combo = combo;
      const auto agg = runner.run(scenario, cfg);
      double degraded = 0.0;
      for (const auto& r : agg.per_run) degraded += r.degraded_s;
      table.add_row({std::string(virt::to_string(combo)),
                     metrics::fmt(agg.unavailability_pct.mean, 4),
                     metrics::fmt(degraded / agg.runs, 0)});
    }
    table.print(std::cout);
    std::cout << "\nnote: lazy restore converts downtime into a degraded-but-up\n"
                 "window — the service answers requests while pages stream in\n";
  }

  std::cout << "\n== sweep 3: placement policy (k = 4, CKPT LR + Live) ==\n\n";
  {
    metrics::TextTable table({"placement", "cost %", "unavailability %"});
    auto run_with = [&](std::shared_ptr<const sched::PlacementPolicy> policy,
                        sched::MarketScope scope, std::string_view label) {
      auto cfg = sched::proactive_config(home);
      cfg.scope = scope;
      cfg.placement = std::move(policy);
      const auto agg = runner.run(scenario, cfg);
      table.add_row({std::string(label),
                     metrics::fmt(agg.normalized_cost_pct.mean, 1),
                     metrics::fmt(agg.unavailability_pct.mean, 4)});
    };
    run_with(nullptr, sched::MarketScope::kMultiMarket, "scoped multi-market");
    run_with(std::make_shared<PinnedMarketPolicy>(home),
             sched::MarketScope::kSingleMarket, "pinned-market (custom)");
    table.print(std::cout);
    std::cout << "\nthe custom policy plugs in via SchedulerConfig::placement;\n"
                 "multi-market escapes price spikes the pinned policy must\n"
                 "ride out on the on-demand fallback.\n";
  }

  std::cout << "\n== sweep 4: the shipped policy zoo, two-region world ==\n\n";
  {
    // Same config seams the custom policy used, stock implementations —
    // docs/POLICIES.md catalogues the knobs on each.
    sched::Scenario zoo_scenario = scenario;
    zoo_scenario.regions = {"us-east-1a", "us-east-1b"};
    metrics::TextTable table({"policy", "cost %", "unavailability %"});
    auto run_zoo = [&](const sched::SchedulerConfig& cfg,
                       std::string_view label) {
      const auto agg = runner.run(zoo_scenario, cfg);
      table.add_row({std::string(label),
                     metrics::fmt(agg.normalized_cost_pct.mean, 1),
                     metrics::fmt(agg.unavailability_pct.mean, 4)});
    };
    auto base = sched::proactive_config(home);
    base.scope = sched::MarketScope::kMultiRegion;
    run_zoo(base, "scoped (default)");
    run_zoo({.scope = sched::MarketScope::kMultiRegion,
             .home_market = home,
             .placement = std::make_shared<const sched::PortfolioPlacementPolicy>()},
            "portfolio");
    auto revocation = sched::reactive_config(home);
    revocation.scope = sched::MarketScope::kMultiRegion;
    revocation.placement = std::make_shared<const sched::RevocationAwarePolicy>();
    run_zoo(revocation, "revocation-aware");
    auto forecast = base;
    forecast.bidding = std::make_shared<const sched::ForecastBidPolicy>();
    run_zoo(forecast, "forecast-bid");
    table.print(std::cout);
  }

  std::cout << "\npick the cheapest row that still meets your availability SLO.\n";
  return 0;
}
