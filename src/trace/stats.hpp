// Statistics over price traces: the quantities the paper plots in
// Fig. 8(b), 9(b) (Pearson correlation) and Fig. 10 (price stddev).
#pragma once

#include <span>
#include <vector>

#include "trace/price_trace.hpp"

namespace spothost::trace {

/// Arithmetic mean of a sample vector. Throws on empty input.
double mean(std::span<const double> xs);

/// Population standard deviation of a sample vector. Throws on empty input.
double stddev(std::span<const double> xs);

/// Pearson correlation coefficient of two equal-length sample vectors.
/// Returns 0 when either side is constant (correlation undefined).
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Time-weighted standard deviation of a trace over [from, to) — exact over
/// the step function, matching Fig. 10's per-market variability measure.
double trace_stddev(const PriceTrace& trace, sim::SimTime from, sim::SimTime to);
/// Cursor flavour: locates `from` starting at `cursor` and leaves the cursor
/// there, so a reader whose windows slide forward (a market's trailing
/// window) finds each start with a short scan.
double trace_stddev(const PriceTrace& trace, sim::SimTime from, sim::SimTime to,
                    PriceCursor& cursor);

/// Pearson correlation of two traces sampled on a uniform grid over their
/// common validity window — matching Fig. 8(b)/9(b).
double trace_correlation(const PriceTrace& a, const PriceTrace& b,
                         sim::SimTime step = 5 * sim::kMinute);

/// Mean pairwise trace correlation across a set of traces (Fig. 8(b) bars).
double mean_pairwise_correlation(std::span<const PriceTrace> traces,
                                 sim::SimTime step = 5 * sim::kMinute);

}  // namespace spothost::trace
