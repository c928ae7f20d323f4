#include "sched/scheduler_config.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/counter_sink.hpp"

namespace spothost::sched {

double RetryPolicy::backoff_s(int attempt) const noexcept {
  if (attempt <= 0) return 0.0;
  double delay = backoff_base_s;
  for (int i = 1; i < attempt; ++i) {
    delay *= backoff_factor;
    if (delay >= backoff_max_s) break;
  }
  return std::min(delay, backoff_max_s);
}

std::string_view to_string(PlannedTiming timing) noexcept {
  switch (timing) {
    case PlannedTiming::kHourEnd: return "hour-end";
    case PlannedTiming::kImmediate: return "immediate";
  }
  return "?";
}

std::string_view to_string(Fallback fallback) noexcept {
  switch (fallback) {
    case Fallback::kOnDemand: return "on-demand";
    case Fallback::kPureSpot: return "pure-spot";
  }
  return "?";
}

void SchedulerConfig::validate() const {
  if (home_market.region.empty()) {
    throw std::invalid_argument("SchedulerConfig: home_market region is empty");
  }
  if (reverse_price_margin < 0.0) {
    throw std::invalid_argument(
        "SchedulerConfig: reverse_price_margin must be >= 0 (got " +
        std::to_string(reverse_price_margin) + ")");
  }
  if (timing_jitter_cv < 0.0) {
    throw std::invalid_argument(
        "SchedulerConfig: timing_jitter_cv must be >= 0 (got " +
        std::to_string(timing_jitter_cv) + ")");
  }
  if (capacity_units_override < 0) {
    throw std::invalid_argument(
        "SchedulerConfig: capacity_units_override must be >= 0 (got " +
        std::to_string(capacity_units_override) + ")");
  }
  if (bid.proactive_multiple <= 0.0) {
    throw std::invalid_argument(
        "SchedulerConfig: bid.proactive_multiple must be > 0 (got " +
        std::to_string(bid.proactive_multiple) + ")");
  }
  if (placement_salt < 0) {
    throw std::invalid_argument(
        "SchedulerConfig: placement_salt must be >= 0 (got " +
        std::to_string(placement_salt) + ")");
  }
  if (stability_penalty_weight < 0.0) {
    throw std::invalid_argument(
        "SchedulerConfig: stability_penalty_weight must be >= 0 (got " +
        std::to_string(stability_penalty_weight) + ")");
  }
  if (stability_window <= 0) {
    throw std::invalid_argument(
        "SchedulerConfig: stability_window must be > 0");
  }
  if (vm_spec.memory_gb < 0.0) {
    throw std::invalid_argument(
        "SchedulerConfig: vm_spec.memory_gb must be >= 0 (got " +
        std::to_string(vm_spec.memory_gb) + ")");
  }
  if (retry.max_attempts < 0) {
    throw std::invalid_argument(
        "SchedulerConfig: retry.max_attempts must be >= 0 (got " +
        std::to_string(retry.max_attempts) + ")");
  }
  if (retry.backoff_base_s < 0.0) {
    throw std::invalid_argument(
        "SchedulerConfig: retry.backoff_base_s must be >= 0 (got " +
        std::to_string(retry.backoff_base_s) + ")");
  }
  if (retry.backoff_factor < 1.0) {
    throw std::invalid_argument(
        "SchedulerConfig: retry.backoff_factor must be >= 1 (got " +
        std::to_string(retry.backoff_factor) + ")");
  }
  if (retry.backoff_max_s < retry.backoff_base_s) {
    throw std::invalid_argument(
        "SchedulerConfig: retry.backoff_max_s must be >= backoff_base_s (got " +
        std::to_string(retry.backoff_max_s) + " < " +
        std::to_string(retry.backoff_base_s) + ")");
  }
}

SchedulerStats scheduler_stats_from(const obs::CounterSink& counters) {
  using obs::EventKind;
  const auto n = [](std::uint64_t v) { return static_cast<int>(v); };
  SchedulerStats s;
  s.forced = n(counters.count(EventKind::kMigrationBegin, obs::code::kForced));
  s.planned =
      n(counters.count(EventKind::kMigrationSwitchover, obs::code::kPlanned));
  s.reverse =
      n(counters.count(EventKind::kMigrationSwitchover, obs::code::kReverse));
  s.cancelled_planned = n(counters.count(EventKind::kMigrationAbandon,
                                         obs::code::kAbandonPriceRecovered));
  s.market_switches = n(counters.count(EventKind::kMarketSwitch));
  s.spot_request_failures = n(counters.count(EventKind::kSpotRequestFailed));
  s.od_hours_started = n(counters.count(EventKind::kBillingHourTick));
  s.retries = n(counters.count(EventKind::kRetryScheduled));
  s.degraded_entries = n(counters.count(EventKind::kDegradedMode));
  return s;
}

}  // namespace spothost::sched
