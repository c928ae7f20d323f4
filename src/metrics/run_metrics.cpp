#include "metrics/run_metrics.hpp"

#include <algorithm>

#include "cloud/billing.hpp"

namespace spothost::metrics {

RunMetrics compute_run_metrics(const cloud::CloudProvider& provider,
                               const sched::CloudScheduler& scheduler,
                               const workload::AlwaysOnService& service,
                               sim::SimTime horizon, double baseline_od_price) {
  RunMetrics m;
  m.horizon_hours = sim::to_hours(horizon);

  const int units_needed = scheduler.units_needed();
  for (const auto& record : provider.ledger().records()) {
    m.total_cost += record.cost;
    // Packing assumption (Sec. 4, multi-market): a larger server hosts
    // capacity_units nested VMs; this service is attributed its share.
    const auto size = provider.market(record.market).id().size;
    const int capacity = cloud::type_info(size).capacity_units;
    const double share =
        std::min(1.0, static_cast<double>(units_needed) / capacity);
    m.attributed_cost += record.cost * share;
  }
  m.baseline_od_cost = cloud::on_demand_cost(baseline_od_price, 0, horizon);
  if (m.baseline_od_cost > 0) {
    m.normalized_cost_pct = 100.0 * m.attributed_cost / m.baseline_od_cost;
  }

  const auto& avail = service.availability();
  m.unavailability_pct = avail.unavailability_percent();
  m.downtime_s = sim::to_seconds(avail.total_downtime());
  m.degraded_s = sim::to_seconds(avail.total_degraded());
  m.longest_outage_s = sim::to_seconds(avail.longest_outage());
  m.outages = static_cast<int>(avail.outage_count());

  const auto stats = scheduler.stats();
  m.forced = stats.forced;
  m.planned = stats.planned;
  m.reverse = stats.reverse;
  m.cancelled_planned = stats.cancelled_planned;
  m.market_switches = stats.market_switches;
  m.retries = stats.retries;
  m.degraded_entries = stats.degraded_entries;
  if (m.horizon_hours > 0) {
    m.forced_per_hour = stats.forced / m.horizon_hours;
    m.planned_reverse_per_hour = (stats.planned + stats.reverse) / m.horizon_hours;
  }
  return m;
}

}  // namespace spothost::metrics
