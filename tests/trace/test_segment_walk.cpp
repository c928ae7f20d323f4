// Differential test for PriceTrace's segment walk: the interval statistics
// (time_average, fraction_below, trace_stddev, extract_features) must give
// the same bits as the cursor walk they replaced, which stepped through the
// segments with price_at + next_change_after. That walk is kept here,
// verbatim, as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "simcore/rng.hpp"
#include "trace/features.hpp"
#include "trace/profiles.hpp"
#include "trace/stats.hpp"
#include "trace/synthetic.hpp"

namespace spothost::trace {
namespace {

using sim::kDay;
using sim::kHour;
using sim::kMinute;
using sim::SimTime;

// --- the reference: the cursor walk -------------------------------------

double ref_time_average(const PriceTrace& trace, SimTime from, SimTime to) {
  PriceCursor cursor;
  double weighted = 0.0;
  SimTime t = from;
  while (t < to) {
    const double p = trace.price_at(t, cursor);
    const auto next = trace.next_change_after(t, cursor);
    const SimTime seg_end = next ? std::min(next->time, to) : to;
    weighted += p * static_cast<double>(seg_end - t);
    t = seg_end;
  }
  return weighted / static_cast<double>(to - from);
}

double ref_fraction_below(const PriceTrace& trace, double threshold, SimTime from,
                          SimTime to) {
  PriceCursor cursor;
  SimTime below = 0;
  SimTime t = from;
  while (t < to) {
    const double p = trace.price_at(t, cursor);
    const auto next = trace.next_change_after(t, cursor);
    const SimTime seg_end = next ? std::min(next->time, to) : to;
    if (p < threshold) below += seg_end - t;
    t = seg_end;
  }
  return static_cast<double>(below) / static_cast<double>(to - from);
}

double ref_trace_stddev(const PriceTrace& trace, SimTime from, SimTime to) {
  PriceCursor cursor;
  const double m = ref_time_average(trace, from, to);
  double acc = 0.0;
  SimTime t = from;
  while (t < to) {
    const double p = trace.price_at(t, cursor);
    const auto next = trace.next_change_after(t, cursor);
    const SimTime seg_end = next ? std::min(next->time, to) : to;
    acc += (p - m) * (p - m) * static_cast<double>(seg_end - t);
    t = seg_end;
  }
  return std::sqrt(acc / static_cast<double>(to - from));
}

TraceFeatures ref_extract_features(const PriceTrace& price_trace,
                                   double reference_price, SimTime from, SimTime to) {
  const double days = static_cast<double>(to - from) / static_cast<double>(kDay);
  PriceCursor cursor;
  TraceFeatures f;
  f.mean_price = ref_time_average(price_trace, from, to);
  f.stddev = ref_trace_stddev(price_trace, from, to);
  f.min_price = price_trace.min_price(from, to, cursor);
  f.max_price = price_trace.max_price(from, to, cursor);
  f.fraction_below_reference =
      ref_fraction_below(price_trace, reference_price, from, to);
  f.max_over_reference = f.max_price / reference_price;

  std::size_t segments = 0;
  SimTime t = from;
  bool in_excursion = false;
  SimTime excursion_start = 0;
  SimTime excursion_total = 0;
  while (t < to) {
    ++segments;
    const double price = price_trace.price_at(t, cursor);
    const auto next = price_trace.next_change_after(t, cursor);
    const SimTime segment_end = next ? std::min(next->time, to) : to;
    if (price > reference_price && !in_excursion) {
      in_excursion = true;
      excursion_start = t;
    } else if (price <= reference_price && in_excursion) {
      in_excursion = false;
      ++f.excursions_above_reference;
      excursion_total += t - excursion_start;
    }
    t = segment_end;
  }
  f.changes_per_day = static_cast<double>(segments) / std::max(days, 1e-9);
  if (in_excursion) {
    ++f.excursions_above_reference;
    excursion_total += to - excursion_start;
  }
  if (f.excursions_above_reference > 0) {
    f.mean_excursion_minutes =
        sim::to_seconds(excursion_total) / 60.0 / f.excursions_above_reference;
  }

  const auto samples = price_trace.sample(from, to, 5 * kMinute, cursor);
  constexpr std::size_t kLag = 12;
  if (samples.size() > kLag + 2) {
    const std::size_t n = samples.size() - kLag;
    std::vector<double> head(samples.begin(),
                             samples.begin() + static_cast<std::ptrdiff_t>(n));
    std::vector<double> tail(samples.begin() + kLag, samples.end());
    f.hourly_autocorrelation = pearson(head, tail);
  }
  return f;
}

// --- comparison ---------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::string window_label(SimTime from, SimTime to) {
  return "[" + std::to_string(from) + ", " + std::to_string(to) + ")";
}

void expect_same_bits(const PriceTrace& trace, SimTime from, SimTime to,
                      double threshold) {
  SCOPED_TRACE(window_label(from, to) + " threshold " + std::to_string(threshold));
  EXPECT_EQ(bits(trace.time_average(from, to)), bits(ref_time_average(trace, from, to)));
  EXPECT_EQ(bits(trace.fraction_below(threshold, from, to)),
            bits(ref_fraction_below(trace, threshold, from, to)));
  EXPECT_EQ(bits(trace_stddev(trace, from, to)), bits(ref_trace_stddev(trace, from, to)));

  const TraceFeatures got = extract_features(trace, threshold, from, to);
  const TraceFeatures want = ref_extract_features(trace, threshold, from, to);
  EXPECT_EQ(bits(got.mean_price), bits(want.mean_price));
  EXPECT_EQ(bits(got.stddev), bits(want.stddev));
  EXPECT_EQ(bits(got.min_price), bits(want.min_price));
  EXPECT_EQ(bits(got.max_price), bits(want.max_price));
  EXPECT_EQ(bits(got.changes_per_day), bits(want.changes_per_day));
  EXPECT_EQ(bits(got.fraction_below_reference), bits(want.fraction_below_reference));
  EXPECT_EQ(got.excursions_above_reference, want.excursions_above_reference);
  EXPECT_EQ(bits(got.mean_excursion_minutes), bits(want.mean_excursion_minutes));
  EXPECT_EQ(bits(got.max_over_reference), bits(want.max_over_reference));
  EXPECT_EQ(bits(got.hourly_autocorrelation), bits(want.hourly_autocorrelation));
}

// A random step function: gaps from 1 ms to 3 h, prices from a small
// palette so consecutive equal prices (coalesced by append) are common,
// and a validity end past the last point.
PriceTrace random_trace(std::mt19937_64& gen) {
  static constexpr double kPalette[] = {0.011, 0.013, 0.02, 0.0271, 0.05, 0.31};
  std::uniform_int_distribution<SimTime> gap(1, 3 * kHour);
  std::uniform_int_distribution<std::size_t> pick(0, std::size(kPalette) - 1);
  std::uniform_int_distribution<int> count(1, 400);
  PriceTrace trace;
  SimTime t = std::uniform_int_distribution<SimTime>(0, kDay)(gen);
  const int n = count(gen);
  for (int i = 0; i < n; ++i) {
    trace.append(t, kPalette[pick(gen)]);
    t += gap(gen);
  }
  trace.set_end(t);
  return trace;
}

TEST(SegmentWalkDifferential, RandomTracesRandomWindows) {
  std::mt19937_64 gen(20150615);
  for (int round = 0; round < 60; ++round) {
    const PriceTrace trace = random_trace(gen);
    std::uniform_int_distribution<SimTime> at(trace.start(), trace.end() - 1);
    PriceCursor shared;  // carried across windows, forward and back
    for (int w = 0; w < 20; ++w) {
      SimTime a = at(gen);
      SimTime b = at(gen);
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      expect_same_bits(trace, a, b, 0.03);
      EXPECT_EQ(bits(trace_stddev(trace, a, b, shared)),
                bits(ref_trace_stddev(trace, a, b)));
    }
  }
}

TEST(SegmentWalkDifferential, SyntheticMarketTraces) {
  sim::RngStream rng(7);
  for (const char* region : {"us-east-1a", "us-west-1a", "eu-west-1a"}) {
    const PriceTrace trace = SyntheticSpotModel::generate(
        profile_for(region, "small"), 0.06, 10 * kDay, rng);
    PriceCursor trailing;  // a market's trailing window: starts slide forward
    for (SimTime now = kDay; now <= 10 * kDay; now += 17 * kHour + 11 * kMinute) {
      const SimTime from = std::max(trace.start(), now - 3 * kDay);
      const SimTime to = std::min(now, trace.end());
      if (from >= to) continue;
      expect_same_bits(trace, from, to, 0.06);
      EXPECT_EQ(bits(trace_stddev(trace, from, to, trailing)),
                bits(ref_trace_stddev(trace, from, to)));
    }
  }
}

TEST(SegmentWalkDifferential, WindowEdges) {
  std::mt19937_64 gen(42);
  const PriceTrace trace = random_trace(gen);
  ASSERT_GE(trace.size(), 3u);
  const auto& pts = trace.points();
  const SimTime start = trace.start();
  const SimTime end = trace.end();
  // The whole trace, and windows starting at start() or ending at end().
  expect_same_bits(trace, start, end, 0.03);
  expect_same_bits(trace, start, pts[1].time + 7, 0.03);
  expect_same_bits(trace, pts[1].time - 3, end, 0.03);
  // Starting exactly at a point, and ending exactly at one.
  expect_same_bits(trace, pts[1].time, pts[2].time + 1, 0.03);
  expect_same_bits(trace, pts[1].time + 1, pts[2].time, 0.03);
  expect_same_bits(trace, pts[1].time, pts[2].time, 0.03);
  // A single segment, and a one-minute window (possibly inside one).
  expect_same_bits(trace, pts[1].time + 1, pts[1].time + 2, 0.03);
  expect_same_bits(trace, end - kMinute, end, 0.03);
  expect_same_bits(trace, start, start + kMinute, 0.03);
  // The last segment alone, which has no next change.
  expect_same_bits(trace, pts.back().time, end, 0.03);
}

TEST(SegmentWalkDifferential, CoalescedEqualPrices) {
  PriceTrace trace;
  trace.append(0, 0.02);
  trace.append(10 * kMinute, 0.02);  // coalesced into the first point
  trace.append(20 * kMinute, 0.05);
  trace.append(30 * kMinute, 0.05);  // coalesced
  trace.append(40 * kMinute, 0.02);
  trace.set_end(2 * kHour);
  ASSERT_EQ(trace.size(), 3u);
  for (const SimTime from : {SimTime{0}, 10 * kMinute, 20 * kMinute, 35 * kMinute}) {
    for (const SimTime to : {41 * kMinute, kHour, 2 * kHour}) {
      expect_same_bits(trace, from, to, 0.03);
    }
  }
}

}  // namespace
}  // namespace spothost::trace
