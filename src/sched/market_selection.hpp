// Market selection for single-market, multi-market and multi-region bidding
// (Secs. 4.2, 4.4, 4.5).
//
// The service is one nested VM needing `units_needed` small-units of
// capacity. A multi-market scheduler may pack it onto a larger server and
// amortise the price over the server's capacity, so markets are compared by
// *effective* price = spot price * units_needed / capacity(size).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "simcore/time.hpp"
#include "trace/stats.hpp"

namespace spothost::sched {

enum class MarketScope { kSingleMarket, kMultiMarket, kMultiRegion };

std::string_view to_string(MarketScope scope) noexcept;

/// Whether market selection penalises volatile markets (paper Sec. 8 future
/// work). Replaces the old `bool stability_aware` flag.
enum class StabilityPolicy {
  kIgnore,              ///< rank by effective price alone
  kPenalizeVolatility,  ///< score = eff_price + weight * trailing stddev
};

std::string_view to_string(StabilityPolicy policy) noexcept;

/// Effective $/hr to host the service on `market` at its current spot price.
double effective_spot_price(const cloud::CloudProvider& provider,
                            const cloud::MarketId& market, int units_needed);
double effective_spot_price(const cloud::CloudProvider& provider,
                            cloud::MarketIndex market, int units_needed);

/// Effective $/hr of the on-demand fallback of the home size in `region`.
double effective_on_demand_price(const cloud::CloudProvider& provider,
                                 const std::string& region,
                                 cloud::InstanceSize home_size);

/// Markets the scheduler may bid in, per scope. For kMultiRegion,
/// `allowed_regions` limits the search (empty = all provider regions).
std::vector<cloud::MarketId> candidate_markets(
    const cloud::CloudProvider& provider, MarketScope scope,
    const cloud::MarketId& home, const std::vector<std::string>& allowed_regions);

/// candidate_markets as MarketIndex, in the same order.
std::vector<cloud::MarketIndex> candidate_indices(
    const cloud::CloudProvider& provider, MarketScope scope,
    const cloud::MarketId& home, const std::vector<std::string>& allowed_regions);

/// Trailing price volatility of a market (stddev over [now - window, now)),
/// used by the stability-aware extension (paper Sec. 8 future work). Reads
/// through the market's SpotMarket::price_stddev memo.
double trailing_stddev(const cloud::CloudProvider& provider,
                       cloud::MarketIndex market, sim::SimTime now,
                       sim::SimTime window);

struct SelectionOptions {
  int units_needed = 1;
  /// Markets whose effective price is >= this threshold are excluded.
  double max_effective_price = 0.0;
  /// Exclude this market (typically the one currently held).
  std::optional<cloud::MarketIndex> exclude;
  /// Additional markets to skip — those that recently failed allocation
  /// (the fault-recovery retry chain walks to the next-cheapest market).
  std::vector<cloud::MarketIndex> avoid{};
  /// Stability-aware scoring: score = eff_price + weight * trailing stddev.
  StabilityPolicy stability = StabilityPolicy::kIgnore;
  double stability_penalty_weight = 1.0;
  sim::SimTime stability_window = 3 * sim::kDay;
  sim::SimTime now = 0;
};

/// Cheapest (by score) candidate below the threshold, or nullopt; ties go
/// to the earlier candidate.
std::optional<cloud::MarketIndex> best_spot_market(
    const cloud::CloudProvider& provider,
    std::span<const cloud::MarketIndex> candidates, const SelectionOptions& options);

/// Region with the lowest on-demand price for `size` among `regions`.
std::string cheapest_on_demand_region(const cloud::CloudProvider& provider,
                                      const std::vector<std::string>& regions,
                                      cloud::InstanceSize size);

}  // namespace spothost::sched
