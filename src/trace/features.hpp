// Trace feature extraction: the statistical fingerprint of a spot-price
// series. Used to calibrate the synthetic model against real EC2 exports
// (and against the paper's qualitative descriptions).
#pragma once

#include <vector>

#include "trace/price_trace.hpp"

namespace spothost::trace {

struct TraceFeatures {
  double mean_price = 0.0;           ///< time-weighted $/hr
  double stddev = 0.0;               ///< time-weighted
  double min_price = 0.0;
  double max_price = 0.0;
  double changes_per_day = 0.0;      ///< price-change event rate
  double fraction_below_reference = 0.0;   ///< time below p_ref
  int excursions_above_reference = 0;      ///< maximal intervals above p_ref
  double mean_excursion_minutes = 0.0;
  double max_over_reference = 0.0;         ///< max price / p_ref
  /// Lag-1-hour autocorrelation of the 5-minute-sampled series.
  double hourly_autocorrelation = 0.0;
};

/// Extracts features over the trace's full window, against a reference
/// price (typically the market's on-demand price).
TraceFeatures extract_features(const PriceTrace& price_trace,
                               double reference_price);

/// Windowed form: features over [from, to) only. Used by trailing-window
/// consumers (the revocation-predictive placement policy scores markets by
/// crossing statistics against its own bid). Requires a non-empty trace,
/// reference_price > 0, and start() <= from < to <= end(). In the windowed
/// form changes_per_day counts price segments intersecting the window.
TraceFeatures extract_features(const PriceTrace& price_trace,
                               double reference_price, sim::SimTime from,
                               sim::SimTime to);

}  // namespace spothost::trace
