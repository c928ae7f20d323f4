// Scheduler configuration: the knobs of Sec. 3 and their validation. Split
// out of scheduler.hpp so configuration, validation, and presets
// (baselines.hpp) evolve independently of the scheduler's state machine.
// A config is a plain aggregate; CloudScheduler validates every config it
// is given, at construction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cloud/market.hpp"
#include "sched/bidding.hpp"
#include "sched/market_selection.hpp"
#include "simcore/time.hpp"
#include "virt/mechanisms.hpp"
#include "virt/vm.hpp"

namespace spothost::obs {
class CounterSink;  // obs/counter_sink.hpp
}

namespace spothost::sched {

class PlacementPolicy;  // sched/placement.hpp

/// When a planned migration begins after the price crosses p_on.
enum class PlannedTiming {
  kHourEnd,    ///< ride out the already-paid hour; leave just before it ends
  kImmediate,  ///< begin as soon as the crossing is observed
};

/// What the scheduler does when no spot market qualifies. Replaces the old
/// `bool allow_on_demand` flag.
enum class Fallback {
  kOnDemand,  ///< migrate to an on-demand server (the paper's scheduler)
  kPureSpot,  ///< Fig. 11 baseline: ride out the outage, no fallback at all
};

std::string_view to_string(PlannedTiming timing) noexcept;
std::string_view to_string(Fallback fallback) noexcept;

/// Bounded retry + exponential backoff for *fault-induced* failures (the
/// src/faults injection layer): capacity errors while acquiring, forced-flow
/// destination failures, mid-flight migration faults. Price-driven failures
/// (spot rejected because the market moved) are handled by the paper's
/// trigger policy and never consult this — fault-free runs are byte-for-byte
/// unaffected by these knobs.
///
/// Attempt n (1-based) backs off backoff_base_s * backoff_factor^(n-1),
/// capped at backoff_max_s. After max_attempts, graceful_degradation decides:
/// degrade (fall back to on-demand / keep polling at the cap) or give up.
/// `{.max_attempts = 0, .graceful_degradation = false}` is the retries-off
/// ablation arm of bench_ablation_faults.
struct RetryPolicy {
  int max_attempts = 3;          ///< bounded-backoff attempts before degrading
  double backoff_base_s = 20.0;  ///< first retry delay
  double backoff_factor = 2.0;   ///< growth per attempt (>= 1)
  double backoff_max_s = 300.0;  ///< cap; also the degraded-mode poll period
  bool graceful_degradation = true;  ///< degrade after the budget, vs. give up

  [[nodiscard]] bool retries_enabled() const noexcept { return max_attempts > 0; }
  /// Backoff before attempt `attempt` (1-based), in seconds.
  [[nodiscard]] double backoff_s(int attempt) const noexcept;
};

struct SchedulerConfig {
  BidPolicy bid{};
  virt::MechanismCombo combo = virt::MechanismCombo::kCkptLazyLive;
  virt::MechanismParams mech = virt::typical_mechanism_params();
  MarketScope scope = MarketScope::kSingleMarket;
  cloud::MarketId home_market{"us-east-1a", cloud::InstanceSize::kSmall};
  /// Regions searchable under kMultiRegion (empty = every provider region).
  std::vector<std::string> allowed_regions{};
  /// kPureSpot => Fig. 11 baseline: no on-demand fallback at all.
  Fallback fallback = Fallback::kOnDemand;
  /// Proactive spike cancellation: abandon a planned migration whose price
  /// trigger evaporated before the transfer started.
  bool cancel_planned_on_price_drop = true;
  PlannedTiming planned_timing = PlannedTiming::kHourEnd;
  /// A spot market must be below margin * p_on to justify a reverse (or
  /// cross-market planned) move — hysteresis against flapping.
  double reverse_price_margin = 0.92;
  /// Lognormal CV applied to transfer/restore durations (measurement noise).
  double timing_jitter_cv = 0.05;
  /// VM being hosted. memory_gb == 0 => derive from the home market size.
  virt::VmSpec vm_spec{.memory_gb = 0.0};
  /// Stability-aware market selection (the paper's stated future work).
  StabilityPolicy stability = StabilityPolicy::kIgnore;
  double stability_penalty_weight = 1.0;
  sim::SimTime stability_window = 3 * sim::kDay;
  /// Capacity the endpoint needs, in small-units. 0 = derive from the home
  /// market size (one whole server). Set to the group size when hosting a
  /// packed workload::ServiceGroup.
  int capacity_units_override = 0;
  /// Destination-selection strategy. Null = the scope-driven default
  /// (ScopedPlacementPolicy); supply a custom PlacementPolicy to change
  /// where the scheduler migrates without touching its internals. Shipped
  /// alternatives live in sched/policy_zoo.hpp; docs/POLICIES.md is the
  /// author's guide.
  std::shared_ptr<const PlacementPolicy> placement{};
  /// Bid-selection strategy. Null = the static `bid` above (reactive /
  /// proactive multiples); supply a BidStrategy (e.g. ForecastBidPolicy) to
  /// derive bids from market history instead.
  std::shared_ptr<const BidStrategy> bidding{};
  /// Deterministic per-service offset consulted by placement policies that
  /// rotate preference over time (PortfolioPlacementPolicy): replicas with
  /// distinct salts spread across the basket instead of stampeding one
  /// market. FleetScheduler assigns per-service salts under
  /// FleetConfig::stagger_placement; single services leave it 0.
  int placement_salt = 0;
  /// Fault-recovery policy (retry / backoff / graceful degradation); see
  /// RetryPolicy. Only consulted when the fault injector actually fires.
  RetryPolicy retry{};

  [[nodiscard]] bool on_demand_allowed() const noexcept {
    return fallback == Fallback::kOnDemand;
  }

  /// Throws std::invalid_argument (naming the field) on nonsense values:
  /// negative reverse_price_margin, jitter CV < 0, empty home-market region,
  /// capacity_units_override < 0, non-positive bid multiple, ...
  void validate() const;
};

/// End-of-run aggregates. Derived from the scheduler's trace-event counters
/// (obs::CounterSink) — see scheduler_stats_from — so these numbers can
/// never disagree with an attached trace sink's view of the same run.
struct SchedulerStats {
  int forced = 0;             ///< revocation-driven migrations executed
  int planned = 0;            ///< voluntary spot->elsewhere moves completed
  int reverse = 0;            ///< on-demand->spot moves completed
  int cancelled_planned = 0;  ///< spike cancellations
  int market_switches = 0;    ///< planned moves that landed on another spot market
  int spot_request_failures = 0;
  int od_hours_started = 0;   ///< on-demand billing hours with a reverse check
  int retries = 0;            ///< fault-recovery retries scheduled
  int degraded_entries = 0;   ///< graceful-degradation fallbacks taken
};

/// Maps trace-event counters onto the classic aggregate view:
///   forced             = migration_begin[forced]
///   planned / reverse  = migration_switchover[planned / reverse]
///   cancelled_planned  = migration_abandon[price_recovered]
///   market_switches    = market_switch
///   spot_request_failures = spot_request_failed
///   od_hours_started   = billing_hour_tick
///   retries            = retry_scheduled
///   degraded_entries   = degraded_mode
SchedulerStats scheduler_stats_from(const obs::CounterSink& counters);

}  // namespace spothost::sched
