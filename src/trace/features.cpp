#include "trace/features.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/stats.hpp"

namespace spothost::trace {

TraceFeatures extract_features(const PriceTrace& price_trace,
                               double reference_price) {
  if (price_trace.empty()) {
    throw std::invalid_argument("extract_features: empty trace");
  }
  return extract_features(price_trace, reference_price, price_trace.start(),
                          price_trace.end());
}

TraceFeatures extract_features(const PriceTrace& price_trace,
                               double reference_price, sim::SimTime from,
                               sim::SimTime to) {
  if (price_trace.empty()) {
    throw std::invalid_argument("extract_features: empty trace");
  }
  if (reference_price <= 0) {
    throw std::invalid_argument("extract_features: reference must be > 0");
  }
  if (from < price_trace.start() || to > price_trace.end() || from >= to) {
    throw std::invalid_argument(
        "extract_features: window must satisfy start() <= from < to <= end()");
  }
  const double days = static_cast<double>(to - from) / static_cast<double>(sim::kDay);

  // Every pass below restarts at `from`; the shared cursor costs one
  // binary-search rewind per pass and then scans each walk linearly.
  PriceCursor cursor;
  TraceFeatures f;
  f.mean_price = price_trace.time_average(from, to, cursor);
  f.stddev = trace_stddev(price_trace, from, to);
  f.min_price = price_trace.min_price(from, to, cursor);
  f.max_price = price_trace.max_price(from, to, cursor);
  f.fraction_below_reference =
      price_trace.fraction_below(reference_price, from, to, cursor);
  f.max_over_reference = f.max_price / reference_price;

  // Excursions above the reference; the same walk counts the price segments
  // intersecting [from, to) — over the full window that count equals
  // size(), so changes_per_day is unchanged for full-trace callers.
  std::size_t segments = 0;
  bool in_excursion = false;
  sim::SimTime excursion_start = 0;
  sim::SimTime excursion_total = 0;
  price_trace.for_each_segment(
      from, to, cursor, [&](double price, sim::SimTime start, sim::SimTime) {
        ++segments;
        if (price > reference_price && !in_excursion) {
          in_excursion = true;
          excursion_start = start;
        } else if (price <= reference_price && in_excursion) {
          in_excursion = false;
          ++f.excursions_above_reference;
          excursion_total += start - excursion_start;
        }
      });
  f.changes_per_day = static_cast<double>(segments) / std::max(days, 1e-9);
  if (in_excursion) {
    ++f.excursions_above_reference;
    excursion_total += to - excursion_start;
  }
  if (f.excursions_above_reference > 0) {
    f.mean_excursion_minutes =
        sim::to_seconds(excursion_total) / 60.0 / f.excursions_above_reference;
  }

  // Lag-1h autocorrelation on a 5-minute grid.
  const auto samples = price_trace.sample(from, to, 5 * sim::kMinute, cursor);
  constexpr std::size_t kLag = 12;  // 12 x 5min = 1h
  if (samples.size() > kLag + 2) {
    const std::size_t n = samples.size() - kLag;
    std::vector<double> head(samples.begin(),
                             samples.begin() + static_cast<std::ptrdiff_t>(n));
    std::vector<double> tail(samples.begin() + kLag, samples.end());
    f.hourly_autocorrelation = pearson(head, tail);
  }
  return f;
}

}  // namespace spothost::trace
