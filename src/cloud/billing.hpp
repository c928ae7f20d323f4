// EC2-2015 billing rules (Sec. 2.1):
//  * on-demand: fixed $/hr, every started instance-hour billed in full;
//  * spot: each instance-hour billed at the spot price in effect at the
//    *start* of that hour (not the bid);
//  * a partial final hour is FREE when the *provider* revoked the instance,
//    but billed in full when the *customer* terminated it.
// Instance-hours are aligned to the instance's launch time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/market.hpp"
#include "simcore/time.hpp"
#include "trace/price_trace.hpp"

namespace spothost::cloud {

enum class BillingMode : std::uint8_t { kOnDemand, kSpot };

enum class TerminationCause {
  kCustomer,         ///< voluntary terminate → final partial hour billed
  kProviderRevoked,  ///< spot revocation → final partial hour free
};

/// Cost of an on-demand instance running [launch, end).
double on_demand_cost(double price_per_hour, sim::SimTime launch, sim::SimTime end);

/// Cost of a spot instance running [launch, end) against the market trace.
double spot_cost(const trace::PriceTrace& price_trace, sim::SimTime launch,
                 sim::SimTime end, TerminationCause cause);

/// Sentinel owner tag: the lease was never attributed to anyone.
inline constexpr std::uint64_t kNoOwner = ~std::uint64_t{0};

/// One finished (or finalized) instance lease, for auditing and metrics.
struct BillingRecord {
  std::uint64_t instance_id = 0;
  MarketIndex market = 0;  ///< the provider's index; CloudProvider::market resolves it
  BillingMode mode = BillingMode::kOnDemand;
  sim::SimTime launch = 0;
  sim::SimTime end = 0;
  TerminationCause cause = TerminationCause::kCustomer;
  double cost = 0.0;
  /// Opaque customer-side owner tag (e.g. the fleet service index), copied
  /// from the instance at lease completion. kNoOwner when never tagged —
  /// billing itself never reads it; attribution (FleetScheduler::metrics)
  /// does.
  std::uint64_t owner = kNoOwner;
};

/// Append-only ledger of completed leases.
class BillingLedger {
 public:
  void add(BillingRecord record);

  [[nodiscard]] const std::vector<BillingRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] double total_cost() const noexcept { return total_; }
  [[nodiscard]] double total_cost(BillingMode mode) const;
  [[nodiscard]] sim::SimTime total_leased_time(BillingMode mode) const;

 private:
  std::vector<BillingRecord> records_;
  double total_ = 0.0;
};

}  // namespace spothost::cloud
