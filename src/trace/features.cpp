#include "trace/features.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "trace/stats.hpp"

namespace spothost::trace {
namespace {

double relative_error(double a, double b) {
  const double denom = std::max({std::abs(a), std::abs(b), 1e-12});
  return std::abs(a - b) / denom;
}

}  // namespace

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

double feature_distance(const TraceFeatures& a, const TraceFeatures& b) {
  double sum = 0.0;
  int dims = 0;
  auto add = [&](double x, double y) {
    sum += relative_error(x, y);
    ++dims;
  };
  add(a.mean_price, b.mean_price);
  add(a.stddev, b.stddev);
  add(a.changes_per_day, b.changes_per_day);
  add(a.fraction_below_reference, b.fraction_below_reference);
  add(static_cast<double>(a.excursions_above_reference),
      static_cast<double>(b.excursions_above_reference));
  add(a.mean_excursion_minutes, b.mean_excursion_minutes);
  add(a.max_over_reference, b.max_over_reference);
  return sum / dims;
}

}  // namespace spothost::trace
