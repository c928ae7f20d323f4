#include "sched/baselines.hpp"

#include <utility>

#include "cloud/billing.hpp"

namespace spothost::sched {

double on_demand_only_cost(const cloud::CloudProvider& provider,
                           const cloud::MarketId& home_market, sim::SimTime horizon) {
  return cloud::on_demand_cost(provider.od_price(home_market), 0, horizon);
}

SchedulerConfig reactive_config(cloud::MarketId home_market) {
  return {.bid = {.mode = BiddingMode::kReactive},
          .scope = MarketScope::kSingleMarket,
          .home_market = std::move(home_market)};
}

SchedulerConfig proactive_config(cloud::MarketId home_market) {
  return {.bid = {.mode = BiddingMode::kProactive, .proactive_multiple = 4.0},
          .scope = MarketScope::kSingleMarket,
          .home_market = std::move(home_market)};
}

SchedulerConfig pure_spot_config(cloud::MarketId home_market) {
  return {.bid = {.mode = BiddingMode::kReactive},  // bid = p_on
          .scope = MarketScope::kSingleMarket,
          .home_market = std::move(home_market),
          .fallback = Fallback::kPureSpot};
}

}  // namespace spothost::sched
