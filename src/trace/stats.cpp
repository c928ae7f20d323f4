#include "trace/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spothost::trace {

double mean(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("mean: empty sample");
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  const double m = mean(xs);
  double s = 0.0;
  for (const double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("pearson: length mismatch");
  }
  if (xs.empty()) throw std::invalid_argument("pearson: empty sample");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  // Degenerate (constant) sides have undefined correlation; the comparison
  // uses a relative epsilon because accumulating a constant leaves O(eps)
  // dust in the centered sums that would otherwise read as correlation 1.
  const double n = static_cast<double>(xs.size());
  const double x_eps = 1e-9 * std::abs(mx);
  const double y_eps = 1e-9 * std::abs(my);
  if (sxx <= x_eps * x_eps * n || syy <= y_eps * y_eps * n) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double trace_stddev(const PriceTrace& trace, sim::SimTime from, sim::SimTime to) {
  PriceCursor cursor;
  return trace_stddev(trace, from, to, cursor);
}

double trace_stddev(const PriceTrace& trace, sim::SimTime from, sim::SimTime to,
                    PriceCursor& cursor) {
  trace.check_interval("trace_stddev", from, to);
  // Both passes start at from's segment: locate it once.
  (void)trace.index_at(from, cursor);
  PriceCursor pass = cursor;
  const double m = trace.time_average(from, to, pass);
  // Second pass over the same segments: the weighted squared error.
  pass = cursor;
  double acc = 0.0;
  trace.for_each_segment(from, to, pass,
                         [&](double p, sim::SimTime start, sim::SimTime end) {
                           acc += (p - m) * (p - m) * static_cast<double>(end - start);
                         });
  return std::sqrt(acc / static_cast<double>(to - from));
}

double trace_correlation(const PriceTrace& a, const PriceTrace& b, sim::SimTime step) {
  const sim::SimTime from = std::max(a.start(), b.start());
  const sim::SimTime to = std::min(a.end(), b.end());
  if (from >= to) throw std::invalid_argument("trace_correlation: disjoint windows");
  const auto xs = a.sample(from, to, step);
  const auto ys = b.sample(from, to, step);
  return pearson(xs, ys);
}

double mean_pairwise_correlation(std::span<const PriceTrace> traces, sim::SimTime step) {
  if (traces.size() < 2) {
    throw std::invalid_argument("mean_pairwise_correlation: need >= 2 traces");
  }
  double sum = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (std::size_t j = i + 1; j < traces.size(); ++j) {
      sum += trace_correlation(traces[i], traces[j], step);
      ++pairs;
    }
  }
  return sum / pairs;
}

}  // namespace spothost::trace
