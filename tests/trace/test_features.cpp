#include "trace/features.hpp"

#include <gtest/gtest.h>

namespace spothost::trace {
namespace {

using sim::kDay;
using sim::kHour;
using sim::kMinute;

PriceTrace step_trace() {
  // 0.02 base; one 2 h excursion to 0.10; one 30 min excursion to 0.50.
  PriceTrace t;
  t.append(0, 0.02);
  t.append(10 * kHour, 0.10);
  t.append(12 * kHour, 0.02);
  t.append(20 * kHour, 0.50);
  t.append(20 * kHour + 30 * kMinute, 0.02);
  t.set_end(2 * kDay);
  return t;
}

TEST(Features, CountsAndMeasuresExcursions) {
  const auto f = extract_features(step_trace(), 0.06);
  EXPECT_EQ(f.excursions_above_reference, 2);
  EXPECT_NEAR(f.mean_excursion_minutes, (120.0 + 30.0) / 2.0, 1e-9);
  EXPECT_NEAR(f.max_over_reference, 0.50 / 0.06, 1e-9);
  EXPECT_NEAR(f.fraction_below_reference, 1.0 - 2.5 / 48.0, 1e-9);
}

TEST(Features, BasicMoments) {
  const auto f = extract_features(step_trace(), 0.06);
  EXPECT_DOUBLE_EQ(f.min_price, 0.02);
  EXPECT_DOUBLE_EQ(f.max_price, 0.50);
  EXPECT_GT(f.mean_price, 0.02);
  EXPECT_LT(f.mean_price, 0.06);
  EXPECT_NEAR(f.changes_per_day, 5.0 / 2.0, 1e-9);
}

TEST(Features, FlatTraceHasNoExcursionsAndFullAutocorrelationIsZero) {
  PriceTrace t;
  t.append(0, 0.03);
  t.set_end(2 * kDay);
  const auto f = extract_features(t, 0.06);
  EXPECT_EQ(f.excursions_above_reference, 0);
  EXPECT_DOUBLE_EQ(f.stddev, 0.0);
  // Constant series: correlation undefined -> reported as 0.
  EXPECT_DOUBLE_EQ(f.hourly_autocorrelation, 0.0);
}

TEST(Features, PersistentSeriesHasPositiveAutocorrelation) {
  // Slowly alternating 6-hour plateaus: strong 1-hour self-similarity.
  PriceTrace t;
  for (int i = 0; i < 8; ++i) {
    t.append(i * 6 * kHour, (i % 2 == 0) ? 0.02 : 0.05);
  }
  t.set_end(2 * kDay);
  const auto f = extract_features(t, 0.06);
  EXPECT_GT(f.hourly_autocorrelation, 0.5);
}

TEST(Features, RejectsBadInput) {
  EXPECT_THROW(extract_features(PriceTrace{}, 0.06), std::invalid_argument);
  EXPECT_THROW(extract_features(step_trace(), 0.0), std::invalid_argument);
}

TEST(Features, WindowedOverFullRangeMatchesUnwindowed) {
  const auto t = step_trace();
  const auto full = extract_features(t, 0.06);
  const auto windowed = extract_features(t, 0.06, t.start(), t.end());
  EXPECT_EQ(windowed.excursions_above_reference,
            full.excursions_above_reference);
  EXPECT_DOUBLE_EQ(windowed.mean_excursion_minutes,
                   full.mean_excursion_minutes);
  EXPECT_DOUBLE_EQ(windowed.fraction_below_reference,
                   full.fraction_below_reference);
  EXPECT_DOUBLE_EQ(windowed.min_price, full.min_price);
  EXPECT_DOUBLE_EQ(windowed.max_price, full.max_price);
  EXPECT_DOUBLE_EQ(windowed.mean_price, full.mean_price);
  EXPECT_DOUBLE_EQ(windowed.changes_per_day, full.changes_per_day);
}

TEST(Features, WindowedCountsOnlyWindowExcursions) {
  // Both excursions of step_trace() fall in the first day; the second day
  // is flat at 0.02.
  const auto t = step_trace();
  const auto day2 = extract_features(t, 0.06, kDay, 2 * kDay);
  EXPECT_EQ(day2.excursions_above_reference, 0);
  EXPECT_DOUBLE_EQ(day2.fraction_below_reference, 1.0);
  EXPECT_DOUBLE_EQ(day2.max_price, 0.02);

  // A window holding exactly the 2 h excursion sees one excursion covering
  // the whole window.
  const auto spike = extract_features(t, 0.06, 10 * kHour, 12 * kHour);
  EXPECT_EQ(spike.excursions_above_reference, 1);
  EXPECT_NEAR(spike.mean_excursion_minutes, 120.0, 1e-9);
  EXPECT_DOUBLE_EQ(spike.fraction_below_reference, 0.0);
}

TEST(Features, WindowedRejectsBadWindows) {
  const auto t = step_trace();
  EXPECT_THROW(extract_features(t, 0.06, -kHour, kDay), std::invalid_argument);
  EXPECT_THROW(extract_features(t, 0.06, 0, t.end() + kHour),
               std::invalid_argument);
  EXPECT_THROW(extract_features(t, 0.06, kDay, kDay), std::invalid_argument);
}

}  // namespace
}  // namespace spothost::trace
