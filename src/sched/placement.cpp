#include "sched/placement.hpp"

#include <algorithm>

#include "sched/bidding.hpp"

namespace spothost::sched {

std::string_view ScopedPlacementPolicy::name() const noexcept { return "scoped"; }

std::vector<cloud::MarketId> ScopedPlacementPolicy::watched_markets(
    const cloud::CloudProvider& provider, const SchedulerConfig& config) const {
  return candidate_markets(provider, config.scope, config.home_market,
                           config.allowed_regions);
}

std::optional<Placement> ScopedPlacementPolicy::choose_spot(
    const cloud::CloudProvider& provider, const SchedulerConfig& config,
    const PlacementQuery& query) const {
  SelectionOptions options;
  options.units_needed = query.units_needed;
  options.max_effective_price = query.max_effective_price;
  options.exclude = query.exclude;
  options.avoid = query.avoid;
  options.stability = config.stability;
  options.stability_penalty_weight = config.stability_penalty_weight;
  options.stability_window = config.stability_window;
  options.now = query.now;
  std::vector<cloud::MarketIndex> storage;
  const auto best = best_spot_market(
      provider, candidates_for(provider, config, query, storage), options);
  if (!best) return std::nullopt;
  const cloud::MarketId& market = provider.market(*best).id();
  return Placement{market, /*on_demand=*/false,
                   bid_strategy_for(config)->bid_for(provider, config, market, query.now)};
}

Placement ScopedPlacementPolicy::choose_on_demand(const cloud::CloudProvider& provider,
                                                  const SchedulerConfig& config,
                                                  const PlacementQuery& query) const {
  std::string region =
      query.fallback_region.empty() ? config.home_market.region : query.fallback_region;
  if (config.scope == MarketScope::kMultiRegion) {
    const auto& regions = config.allowed_regions.empty() ? provider.regions()
                                                         : config.allowed_regions;
    region = cheapest_on_demand_region(provider, regions, config.home_market.size);
  }
  return Placement{cloud::MarketId{region, config.home_market.size},
                   /*on_demand=*/true, 0.0};
}

std::span<const cloud::MarketIndex> candidates_for(
    const cloud::CloudProvider& provider, const SchedulerConfig& config,
    const PlacementQuery& query, std::vector<cloud::MarketIndex>& storage) {
  if (!query.candidates.empty()) return query.candidates;
  storage = candidate_indices(provider, config.scope, config.home_market,
                              config.allowed_regions);
  return storage;
}

std::shared_ptr<const PlacementPolicy> placement_policy_for(
    const SchedulerConfig& config) {
  if (config.placement) return config.placement;
  static const auto kScoped = std::make_shared<const ScopedPlacementPolicy>();
  return kScoped;
}

}  // namespace spothost::sched
