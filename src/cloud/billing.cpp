#include "cloud/billing.hpp"

#include <algorithm>
#include <stdexcept>

namespace spothost::cloud {

double on_demand_cost(double price_per_hour, sim::SimTime launch, sim::SimTime end) {
  if (end < launch) throw std::invalid_argument("on_demand_cost: end < launch");
  if (end == launch) return 0.0;
  const sim::SimTime duration = end - launch;
  const sim::SimTime hours_started = (duration + sim::kHour - 1) / sim::kHour;
  return price_per_hour * static_cast<double>(hours_started);
}

double spot_cost(const trace::PriceTrace& price_trace, sim::SimTime launch,
                 sim::SimTime end, TerminationCause cause) {
  if (end < launch) throw std::invalid_argument("spot_cost: end < launch");
  if (end == launch) return 0.0;
  // Bill every *completed* instance-hour at its start price; the final
  // partial hour is billed only on customer termination. The billed hour
  // starts are launch + k hours for k < hours, so one walk over the trace's
  // points, merged with them, prices them all, adding in hour order.
  const sim::SimTime span = end - launch;
  sim::SimTime hours = span / sim::kHour;
  if (cause == TerminationCause::kCustomer && span % sim::kHour != 0) ++hours;
  if (hours == 0) return 0.0;
  const auto& points = price_trace.points();
  if (points.empty() || launch < points.front().time ||
      launch + (hours - 1) * sim::kHour >= price_trace.end()) {
    throw std::out_of_range("PriceTrace: query outside [start, end)");
  }
  // The point governing launch: the last one at or before it.
  const auto after = [](sim::SimTime t, const trace::PricePoint& p) { return t < p.time; };
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(points.begin(), points.end(), launch, after) - points.begin() - 1);
  double cost = 0.0;
  sim::SimTime hour_start = launch;
  for (sim::SimTime k = 0; k < hours; ++k, hour_start += sim::kHour) {
    while (i + 1 < points.size() && points[i + 1].time <= hour_start) ++i;
    cost += points[i].price;
  }
  return cost;
}

void BillingLedger::add(BillingRecord record) {
  total_ += record.cost;
  records_.push_back(std::move(record));
}

double BillingLedger::total_cost(BillingMode mode) const {
  double sum = 0.0;
  for (const auto& r : records_) {
    if (r.mode == mode) sum += r.cost;
  }
  return sum;
}

sim::SimTime BillingLedger::total_leased_time(BillingMode mode) const {
  sim::SimTime sum = 0;
  for (const auto& r : records_) {
    if (r.mode == mode) sum += r.end - r.launch;
  }
  return sum;
}

}  // namespace spothost::cloud
