#include "trace/price_trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace spothost::trace {

PriceTrace::PriceTrace(std::vector<PricePoint> points, sim::SimTime end) {
  for (const auto& p : points) {
    append(p.time, p.price);
  }
  set_end(end);
}

void PriceTrace::append(sim::SimTime time, double price) {
  if (!(price > 0) || !std::isfinite(price)) {
    throw std::invalid_argument("PriceTrace::append: price must be finite and > 0");
  }
  if (!points_.empty()) {
    if (time <= points_.back().time) {
      throw std::invalid_argument("PriceTrace::append: non-increasing timestamp");
    }
    if (points_.back().price == price) {
      end_ = std::max(end_, time);
      return;  // coalesce equal consecutive prices
    }
  }
  points_.push_back(PricePoint{time, price});
  end_ = std::max(end_, time);
}

void PriceTrace::amend_last(double price) {
  if (!(price > 0) || !std::isfinite(price)) {
    throw std::invalid_argument(
        "PriceTrace::amend_last: price must be finite and > 0");
  }
  if (points_.empty()) {
    throw std::logic_error("PriceTrace::amend_last: empty trace");
  }
  points_.back().price = price;
}

void PriceTrace::set_end(sim::SimTime end) {
  if (!points_.empty() && end < points_.back().time) {
    throw std::invalid_argument("PriceTrace::set_end: end before last point");
  }
  end_ = end;
}

sim::SimTime PriceTrace::start() const {
  if (points_.empty()) throw std::logic_error("PriceTrace::start: empty trace");
  return points_.front().time;
}

namespace {

// Forward hops tried linearly before falling back to binary search: covers
// the simulator's step-by-step advance without degrading a far jump past
// O(log n).
constexpr std::size_t kLinearScanLimit = 8;

}  // namespace

std::size_t PriceTrace::index_at(sim::SimTime t, PriceCursor& cursor) const {
  if (points_.empty() || t < points_.front().time || t >= end_) {
    throw std::out_of_range("PriceTrace: query outside [start, end)");
  }
  std::size_t i = cursor.index_ < points_.size() ? cursor.index_ : 0;
  if (points_[i].time <= t) {
    // Forward from the cursor: the monotone common case lands within a few
    // hops; a long jump gallops into a binary search of the remaining tail.
    std::size_t hops = 0;
    while (i + 1 < points_.size() && points_[i + 1].time <= t) {
      if (++hops > kLinearScanLimit) {
        const auto it = std::upper_bound(
            points_.begin() + static_cast<std::ptrdiff_t>(i + 1), points_.end(),
            t,
            [](sim::SimTime lhs, const PricePoint& p) { return lhs < p.time; });
        i = static_cast<std::size_t>(std::distance(points_.begin(), it)) - 1;
        break;
      }
      ++i;
    }
  } else {
    // Rewind: binary search the prefix before the cursor.
    const auto it = std::upper_bound(
        points_.begin(), points_.begin() + static_cast<std::ptrdiff_t>(i), t,
        [](sim::SimTime lhs, const PricePoint& p) { return lhs < p.time; });
    i = static_cast<std::size_t>(std::distance(points_.begin(), it)) - 1;
  }
  cursor.index_ = i;
  return i;
}

void PriceTrace::check_interval(const char* name, sim::SimTime from,
                                sim::SimTime to) const {
  if (from >= to) {
    throw std::invalid_argument(std::string(name) + ": empty interval");
  }
  if (to > end_) {
    // The step function is undefined past end(); silently extrapolating the
    // last price would fabricate data (and used to, for four of the five
    // interval statistics).
    throw std::out_of_range(std::string(name) +
                            ": interval extends past the trace end()");
  }
}

double PriceTrace::price_at(sim::SimTime t) const {
  PriceCursor cursor;
  return price_at(t, cursor);
}

double PriceTrace::price_at(sim::SimTime t, PriceCursor& cursor) const {
  return points_[index_at(t, cursor)].price;
}

std::optional<PricePoint> PriceTrace::next_change_after(sim::SimTime t) const {
  PriceCursor cursor;
  return next_change_after(t, cursor);
}

std::optional<PricePoint> PriceTrace::next_change_after(sim::SimTime t,
                                                        PriceCursor& cursor) const {
  if (points_.empty()) return std::nullopt;
  if (t < points_.front().time) {
    if (points_.front().time >= end_) return std::nullopt;
    return points_.front();
  }
  if (t >= end_) return std::nullopt;
  // t lies in [start, end): the next change is the point after t's segment.
  const std::size_t i = index_at(t, cursor);
  if (i + 1 < points_.size() && points_[i + 1].time < end_) return points_[i + 1];
  return std::nullopt;
}

double PriceTrace::time_average(sim::SimTime from, sim::SimTime to) const {
  PriceCursor cursor;
  return time_average(from, to, cursor);
}

double PriceTrace::time_average(sim::SimTime from, sim::SimTime to,
                                PriceCursor& cursor) const {
  check_interval("time_average", from, to);
  double weighted = 0.0;
  for_each_segment(from, to, cursor,
                   [&](double price, sim::SimTime start, sim::SimTime end) {
                     weighted += price * static_cast<double>(end - start);
                   });
  return weighted / static_cast<double>(to - from);
}

double PriceTrace::fraction_below(double threshold, sim::SimTime from,
                                  sim::SimTime to) const {
  PriceCursor cursor;
  return fraction_below(threshold, from, to, cursor);
}

double PriceTrace::fraction_below(double threshold, sim::SimTime from,
                                  sim::SimTime to, PriceCursor& cursor) const {
  check_interval("fraction_below", from, to);
  sim::SimTime below = 0;
  for_each_segment(from, to, cursor,
                   [&](double price, sim::SimTime start, sim::SimTime end) {
                     if (price < threshold) below += end - start;
                   });
  return static_cast<double>(below) / static_cast<double>(to - from);
}

double PriceTrace::min_price(sim::SimTime from, sim::SimTime to) const {
  PriceCursor cursor;
  return min_price(from, to, cursor);
}

double PriceTrace::min_price(sim::SimTime from, sim::SimTime to,
                             PriceCursor& cursor) const {
  check_interval("min_price", from, to);
  std::size_t i = index_at(from, cursor);
  double lo = points_[i].price;
  while (i + 1 < points_.size() && points_[i + 1].time < to) {
    ++i;
    lo = std::min(lo, points_[i].price);
  }
  cursor.index_ = i;
  return lo;
}

double PriceTrace::max_price(sim::SimTime from, sim::SimTime to) const {
  PriceCursor cursor;
  return max_price(from, to, cursor);
}

double PriceTrace::max_price(sim::SimTime from, sim::SimTime to,
                             PriceCursor& cursor) const {
  check_interval("max_price", from, to);
  std::size_t i = index_at(from, cursor);
  double hi = points_[i].price;
  while (i + 1 < points_.size() && points_[i + 1].time < to) {
    ++i;
    hi = std::max(hi, points_[i].price);
  }
  cursor.index_ = i;
  return hi;
}

std::vector<double> PriceTrace::sample(sim::SimTime from, sim::SimTime to,
                                       sim::SimTime step) const {
  PriceCursor cursor;
  return sample(from, to, step, cursor);
}

std::vector<double> PriceTrace::sample(sim::SimTime from, sim::SimTime to,
                                       sim::SimTime step,
                                       PriceCursor& cursor) const {
  if (step <= 0) throw std::invalid_argument("sample: step must be > 0");
  if (to > end_) {
    throw std::out_of_range("sample: interval extends past the trace end()");
  }
  std::vector<double> out;
  if (from >= to) return out;
  out.reserve(static_cast<std::size_t>((to - from) / step) + 1);
  // Single linear merge of the sample grid against the change points —
  // O(samples + points) instead of a lookup per sample.
  std::size_t i = index_at(from, cursor);
  for (sim::SimTime t = from; t < to; t += step) {
    while (i + 1 < points_.size() && points_[i + 1].time <= t) ++i;
    out.push_back(points_[i].price);
  }
  cursor.index_ = i;
  return out;
}

}  // namespace spothost::trace
