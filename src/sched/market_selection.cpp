#include "sched/market_selection.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace spothost::sched {

std::string_view to_string(MarketScope scope) noexcept {
  switch (scope) {
    case MarketScope::kSingleMarket: return "single-market";
    case MarketScope::kMultiMarket: return "multi-market";
    case MarketScope::kMultiRegion: return "multi-region";
  }
  return "?";
}

std::string_view to_string(StabilityPolicy policy) noexcept {
  switch (policy) {
    case StabilityPolicy::kIgnore: return "ignore";
    case StabilityPolicy::kPenalizeVolatility: return "penalize-volatility";
  }
  return "?";
}

double effective_spot_price(const cloud::CloudProvider& provider,
                            const cloud::MarketId& market, int units_needed) {
  return effective_spot_price(provider, provider.index(market), units_needed);
}

double effective_spot_price(const cloud::CloudProvider& provider,
                            cloud::MarketIndex market, int units_needed) {
  if (units_needed <= 0) {
    throw std::invalid_argument("effective_spot_price: units_needed must be > 0");
  }
  const cloud::SpotMarket& m = provider.market(market);
  const int capacity = cloud::type_info(m.id().size).capacity_units;
  return m.price() * static_cast<double>(units_needed) / static_cast<double>(capacity);
}

double effective_on_demand_price(const cloud::CloudProvider& provider,
                                 const std::string& region,
                                 cloud::InstanceSize home_size) {
  return provider.od_price(cloud::MarketId{region, home_size});
}

std::vector<cloud::MarketId> candidate_markets(
    const cloud::CloudProvider& provider, MarketScope scope,
    const cloud::MarketId& home, const std::vector<std::string>& allowed_regions) {
  switch (scope) {
    case MarketScope::kSingleMarket:
      return {home};
    case MarketScope::kMultiMarket:
      return provider.markets_in_region(home.region);
    case MarketScope::kMultiRegion: {
      if (allowed_regions.empty()) return provider.all_markets();
      std::vector<cloud::MarketId> out;
      for (const auto& region : allowed_regions) {
        for (auto& m : provider.markets_in_region(region)) {
          out.push_back(std::move(m));
        }
      }
      return out;
    }
  }
  return {home};
}

std::vector<cloud::MarketIndex> candidate_indices(
    const cloud::CloudProvider& provider, MarketScope scope,
    const cloud::MarketId& home, const std::vector<std::string>& allowed_regions) {
  std::vector<cloud::MarketIndex> out;
  for (const auto& market :
       candidate_markets(provider, scope, home, allowed_regions)) {
    out.push_back(provider.index(market));
  }
  return out;
}

double trailing_stddev(const cloud::CloudProvider& provider,
                       cloud::MarketIndex market, sim::SimTime now,
                       sim::SimTime window) {
  const cloud::SpotMarket& m = provider.market(market);
  const auto& price_trace = m.price_trace();
  const sim::SimTime from = std::max(price_trace.start(), now - window);
  const sim::SimTime to = std::max(from + sim::kMinute, now);
  const sim::SimTime clamped_to = std::min(to, price_trace.end());
  if (clamped_to <= from) return 0.0;
  return m.price_stddev(from, clamped_to);
}

std::optional<cloud::MarketIndex> best_spot_market(
    const cloud::CloudProvider& provider,
    std::span<const cloud::MarketIndex> candidates, const SelectionOptions& options) {
  std::optional<cloud::MarketIndex> best;
  double best_score = std::numeric_limits<double>::infinity();
  for (const cloud::MarketIndex market : candidates) {
    if (options.exclude == market) continue;
    if (std::find(options.avoid.begin(), options.avoid.end(), market) !=
        options.avoid.end()) {
      continue;
    }
    const double eff = effective_spot_price(provider, market, options.units_needed);
    if (eff >= options.max_effective_price) continue;
    double score = eff;
    if (options.stability == StabilityPolicy::kPenalizeVolatility) {
      score += options.stability_penalty_weight *
               trailing_stddev(provider, market, options.now, options.stability_window);
    }
    if (score < best_score) {
      best_score = score;
      best = market;
    }
  }
  return best;
}

std::string cheapest_on_demand_region(const cloud::CloudProvider& provider,
                                      const std::vector<std::string>& regions,
                                      cloud::InstanceSize size) {
  if (regions.empty()) {
    throw std::invalid_argument("cheapest_on_demand_region: no regions");
  }
  std::string best = regions.front();
  double best_price = effective_on_demand_price(provider, best, size);
  for (const auto& region : regions) {
    const double p = effective_on_demand_price(provider, region, size);
    if (p < best_price) {
      best_price = p;
      best = region;
    }
  }
  return best;
}

}  // namespace spothost::sched
