#include "cloud/billing.hpp"

#include <gtest/gtest.h>

namespace spothost::cloud {
namespace {

using sim::kHour;
using sim::kMinute;

TEST(Billing, OnDemandBillsStartedHours) {
  EXPECT_DOUBLE_EQ(on_demand_cost(0.10, 0, 2 * kHour), 0.20);
  // A partial hour bills in full.
  EXPECT_DOUBLE_EQ(on_demand_cost(0.10, 0, 2 * kHour + 1), 0.30);
  EXPECT_DOUBLE_EQ(on_demand_cost(0.10, 0, kMinute), 0.10);
}

TEST(Billing, OnDemandZeroDurationFree) {
  EXPECT_DOUBLE_EQ(on_demand_cost(0.10, 500, 500), 0.0);
}

TEST(Billing, OnDemandHoursAlignToLaunchNotWallClock) {
  // Launch mid-wall-clock-hour; 1 instance-hour exactly.
  EXPECT_DOUBLE_EQ(on_demand_cost(0.10, 30 * kMinute, 90 * kMinute), 0.10);
}

TEST(Billing, OnDemandRejectsNegativeDuration) {
  EXPECT_THROW(on_demand_cost(0.10, 100, 50), std::invalid_argument);
}

trace::PriceTrace steps() {
  // 0.02 for the first 90 min, then 0.08.
  trace::PriceTrace t;
  t.append(0, 0.02);
  t.append(90 * kMinute, 0.08);
  t.set_end(10 * kHour);
  return t;
}

TEST(Billing, SpotBillsHourStartPrice) {
  const auto t = steps();
  // Launch at 0: hour 1 starts at price 0.02; hour 2 starts at 1h -> 0.02.
  // (Price changes at 90min, after hour 2 began.)
  EXPECT_DOUBLE_EQ(spot_cost(t, 0, 2 * kHour, TerminationCause::kCustomer),
                   0.02 + 0.02);
  // Hour 3 starts at 2h -> 0.08.
  EXPECT_DOUBLE_EQ(spot_cost(t, 0, 3 * kHour, TerminationCause::kCustomer),
                   0.02 + 0.02 + 0.08);
}

TEST(Billing, SpotPartialHourFreeOnRevocation) {
  const auto t = steps();
  // 1.5 hours: one complete hour billed; the partial second hour is free
  // because the provider revoked.
  EXPECT_DOUBLE_EQ(
      spot_cost(t, 0, 90 * kMinute, TerminationCause::kProviderRevoked), 0.02);
}

TEST(Billing, SpotPartialHourBilledOnCustomerTermination) {
  const auto t = steps();
  EXPECT_DOUBLE_EQ(spot_cost(t, 0, 90 * kMinute, TerminationCause::kCustomer),
                   0.02 + 0.02);
}

TEST(Billing, SpotBilledAtSpotPriceNotBid) {
  // The bid never appears in the billing path at all; hour-start price only.
  const auto t = steps();
  EXPECT_DOUBLE_EQ(spot_cost(t, 2 * kHour, 3 * kHour, TerminationCause::kCustomer),
                   0.08);
}

TEST(Billing, SpotInstanceHoursAlignToLaunch) {
  const auto t = steps();
  // Launch at 85min (price 0.02); instance-hour 2 starts at 145min (0.08).
  EXPECT_DOUBLE_EQ(spot_cost(t, 85 * kMinute, 85 * kMinute + 2 * kHour,
                             TerminationCause::kCustomer),
                   0.02 + 0.08);
}

TEST(Billing, SpotZeroDuration) {
  const auto t = steps();
  EXPECT_DOUBLE_EQ(spot_cost(t, kHour, kHour, TerminationCause::kCustomer), 0.0);
}

TEST(Billing, LedgerAccumulates) {
  BillingLedger ledger;
  ledger.add(BillingRecord{1, /*market=*/0,
                           BillingMode::kSpot, 0, kHour,
                           TerminationCause::kCustomer, 0.02});
  ledger.add(BillingRecord{2, /*market=*/0,
                           BillingMode::kOnDemand, kHour, 3 * kHour,
                           TerminationCause::kCustomer, 0.12});
  EXPECT_DOUBLE_EQ(ledger.total_cost(), 0.14);
  EXPECT_DOUBLE_EQ(ledger.total_cost(BillingMode::kSpot), 0.02);
  EXPECT_DOUBLE_EQ(ledger.total_cost(BillingMode::kOnDemand), 0.12);
  EXPECT_EQ(ledger.total_leased_time(BillingMode::kOnDemand), 2 * kHour);
  EXPECT_EQ(ledger.records().size(), 2u);
}

class SpotBillingSweep : public ::testing::TestWithParam<int> {};

TEST_P(SpotBillingSweep, CompletedHoursAlwaysBilledRegardlessOfCause) {
  const auto t = steps();
  const int hours = GetParam();
  const double billed_customer =
      spot_cost(t, 0, hours * kHour, TerminationCause::kCustomer);
  const double billed_revoked =
      spot_cost(t, 0, hours * kHour, TerminationCause::kProviderRevoked);
  // Exact-hour terminations have no partial hour, so cause cannot matter.
  EXPECT_DOUBLE_EQ(billed_customer, billed_revoked);
  // And revocation mid-hour only ever removes the final partial hour.
  const double mid_revoked =
      spot_cost(t, 0, hours * kHour + 30 * kMinute, TerminationCause::kProviderRevoked);
  EXPECT_DOUBLE_EQ(mid_revoked, billed_revoked);
}

INSTANTIATE_TEST_SUITE_P(Hours, SpotBillingSweep, ::testing::Values(1, 2, 3, 5, 9));

}  // namespace
}  // namespace spothost::cloud
