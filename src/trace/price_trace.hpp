// Spot-price traces as right-continuous step functions.
//
// EC2 publishes spot prices as a sequence of (timestamp, price) change
// events; the price holds between events. PriceTrace stores exactly that and
// answers the queries the simulator needs: point lookup, next change after t,
// exact time-weighted integrals, and uniform resampling for statistics.
//
// Thread safety: a PriceTrace is built once (append/set_end) and immutable
// afterwards — every const query is a pure read, so one instance may be
// queried from any number of threads concurrently (this is what lets the
// experiment layer's memoized MarketTraceSets be shared across pool threads
// without copying). The monotone-scan acceleration state lives in an
// explicit per-reader PriceCursor owned by the caller, never in the trace.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "simcore/time.hpp"

namespace spothost::trace {

struct TraceFeatures;  // trace/features.hpp

struct PricePoint {
  sim::SimTime time;  ///< instant the price takes effect
  double price;       ///< $/hour from `time` until the next point
};

/// Per-reader read position for amortized-O(1) monotone PriceTrace queries.
///
/// The scheduler and billing meter only move forward in simulation time, so
/// remembering the last segment served turns their point lookups into a
/// short linear scan (with a binary-search fallback for jumps and rewinds).
/// That memory is *reader* state, not trace state: each reader — a
/// SpotMarket, one statistics walk, one bench loop — owns its own cursor
/// and passes it to the cursor-taking query overloads. A cursor is cheap to
/// construct, belongs to one trace at a time (reusing it on another trace
/// is safe but degrades the first query to a search), and must not be
/// shared between threads — the trace itself may be.
class PriceCursor {
 public:
  PriceCursor() = default;

  /// Forgets the remembered position; the next query re-searches.
  void reset() noexcept { index_ = 0; }

 private:
  friend class PriceTrace;
  std::size_t index_ = 0;  ///< last segment index served
};

class PriceTrace {
 public:
  PriceTrace() = default;

  /// Builds from pre-sorted points (strictly increasing times, prices > 0).
  /// `end` is the exclusive end of the trace's validity window.
  PriceTrace(std::vector<PricePoint> points, sim::SimTime end);

  /// Appends a change event. `time` must be strictly after the last point
  /// (the first append defines start()). Equal consecutive prices are
  /// coalesced. Extends end() to at least `time`.
  void append(sim::SimTime time, double price);

  /// Marks the trace valid through `end` (exclusive). Must be >= last point.
  void set_end(sim::SimTime end);

  /// Replaces the last point's price in place (build phase only; throws on
  /// an empty trace). Exists for live accumulation (cloud::SpotMarket's
  /// push-fed billing record): two feed updates landing in the same
  /// millisecond collapse to one point, last price wins — append() cannot
  /// express that because its timestamps must strictly increase.
  void amend_last(double price);

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] sim::SimTime start() const;
  [[nodiscard]] sim::SimTime end() const noexcept { return end_; }

  // Every query comes in two const-safe flavours: a cursor-taking overload
  // (amortized O(1) along a monotone pass — pass the same cursor to each
  // successive call) and a cursorless convenience that searches from
  // scratch (O(log n)). Neither mutates the trace.

  /// Price in effect at `t`. Precondition: start() <= t < end().
  [[nodiscard]] double price_at(sim::SimTime t) const;
  [[nodiscard]] double price_at(sim::SimTime t, PriceCursor& cursor) const;

  /// First change event strictly after `t`, or nullopt if none before end().
  [[nodiscard]] std::optional<PricePoint> next_change_after(sim::SimTime t) const;
  [[nodiscard]] std::optional<PricePoint> next_change_after(
      sim::SimTime t, PriceCursor& cursor) const;

  // Interval statistics over [from, to). All of them require
  // start() <= from < to <= end(): an interval reaching past the validity
  // window throws std::out_of_range (the step function is unknown there),
  // an empty interval throws std::invalid_argument.

  /// Exact time-weighted average over [from, to) of the step function.
  [[nodiscard]] double time_average(sim::SimTime from, sim::SimTime to) const;
  [[nodiscard]] double time_average(sim::SimTime from, sim::SimTime to,
                                    PriceCursor& cursor) const;

  /// Fraction of [from, to) during which price < threshold (time-weighted).
  [[nodiscard]] double fraction_below(double threshold, sim::SimTime from,
                                      sim::SimTime to) const;
  [[nodiscard]] double fraction_below(double threshold, sim::SimTime from,
                                      sim::SimTime to, PriceCursor& cursor) const;

  /// Minimum / maximum price over [from, to).
  [[nodiscard]] double min_price(sim::SimTime from, sim::SimTime to) const;
  [[nodiscard]] double min_price(sim::SimTime from, sim::SimTime to,
                                 PriceCursor& cursor) const;
  [[nodiscard]] double max_price(sim::SimTime from, sim::SimTime to) const;
  [[nodiscard]] double max_price(sim::SimTime from, sim::SimTime to,
                                 PriceCursor& cursor) const;

  /// Samples price at from, from+step, ... (< to) — for correlation grids.
  /// Requires to <= end(); an empty interval yields an empty vector.
  [[nodiscard]] std::vector<double> sample(sim::SimTime from, sim::SimTime to,
                                           sim::SimTime step) const;
  [[nodiscard]] std::vector<double> sample(sim::SimTime from, sim::SimTime to,
                                           sim::SimTime step,
                                           PriceCursor& cursor) const;

  [[nodiscard]] const std::vector<PricePoint>& points() const noexcept { return points_; }

 private:
  // Index of the point governing time t (largest i with points_[i].time <= t).
  // Starts from the caller's cursor: a short linear scan forward for the
  // monotone common case, binary search otherwise; leaves the cursor at the
  // result.
  [[nodiscard]] std::size_t index_at(sim::SimTime t, PriceCursor& cursor) const;

  // The segment walk under every interval statistic: calls
  // fn(price, seg_start, seg_end) for each segment of the step function
  // over [from, to), in time order. One index_at(from), then a plain ++i
  // per segment: every segment but the last ends at the next point, the
  // last at `to`. Leaves the cursor at the last segment. The caller has
  // validated the interval (from < to <= end()).
  template <typename Fn>
  void for_each_segment(sim::SimTime from, sim::SimTime to, PriceCursor& cursor,
                        Fn&& fn) const {
    std::size_t i = index_at(from, cursor);
    const std::size_t last = points_.size() - 1;
    sim::SimTime t = from;
    while (i < last && points_[i + 1].time < to) {
      const sim::SimTime seg_end = points_[i + 1].time;
      fn(points_[i].price, t, seg_end);
      t = seg_end;
      ++i;
    }
    fn(points_[i].price, t, to);
    cursor.index_ = i;
  }
  // The walks outside this class that share it (trace/stats.cpp,
  // trace/features.cpp).
  friend double trace_stddev(const PriceTrace& trace, sim::SimTime from,
                             sim::SimTime to, PriceCursor& cursor);
  friend TraceFeatures extract_features(const PriceTrace& price_trace,
                                        double reference_price, sim::SimTime from,
                                        sim::SimTime to);

  // Shared [from, to) validation for the interval statistics.
  void check_interval(const char* name, sim::SimTime from, sim::SimTime to) const;

  std::vector<PricePoint> points_;
  sim::SimTime end_ = 0;
};

}  // namespace spothost::trace
