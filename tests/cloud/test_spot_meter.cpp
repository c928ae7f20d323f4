// SpotMeterDifferential: spot_cost's one merge of the trace's points with
// the lease's hour starts returns the bits of the per-hour price_at loop it
// replaced, and throws where that loop threw.
#include "cloud/billing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "cloud/market.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "trace/price_trace.hpp"

namespace spothost::cloud {
namespace {

using sim::kHour;
using sim::kMinute;
using sim::SimTime;

/// The meter this replaced, verbatim: one cursor lookup per billed hour.
double reference_spot_cost(const trace::PriceTrace& price_trace, SimTime launch,
                           SimTime end, TerminationCause cause) {
  if (end < launch) throw std::invalid_argument("spot_cost: end < launch");
  if (end == launch) return 0.0;
  double cost = 0.0;
  trace::PriceCursor cursor;
  for (SimTime hour_start = launch; hour_start < end; hour_start += kHour) {
    const bool complete = hour_start + kHour <= end;
    if (complete || cause == TerminationCause::kCustomer) {
      cost += price_trace.price_at(hour_start, cursor);
    }
  }
  return cost;
}

/// A meter's answer: the cost's bits, or that it threw std::out_of_range.
struct Outcome {
  std::optional<std::uint64_t> bits;
  bool out_of_range = false;
  bool operator==(const Outcome&) const = default;
};

template <typename Meter>
Outcome run(Meter meter, const trace::PriceTrace& t, SimTime launch, SimTime end,
            TerminationCause cause) {
  Outcome out;
  try {
    out.bits = std::bit_cast<std::uint64_t>(meter(t, launch, end, cause));
  } catch (const std::out_of_range&) {
    out.out_of_range = true;
  }
  return out;
}

/// Compares both meters on one lease; returns whether the lease was billed
/// without a throw.
bool expect_same(const trace::PriceTrace& t, SimTime launch, SimTime end,
                 TerminationCause cause) {
  const Outcome want = run(reference_spot_cost, t, launch, end, cause);
  const Outcome got = run(spot_cost, t, launch, end, cause);
  EXPECT_EQ(got, want) << "launch " << launch << " end " << end << " cause "
                       << static_cast<int>(cause) << " trace [" << t.start() << ", "
                       << t.end() << ") with " << t.size() << " points";
  return want.bits.has_value();
}

/// A random step function: 1-60 points, gaps from a millisecond to three
/// hours (many points inside one hour, and hours without a point), end a
/// little past the last point or far beyond it.
trace::PriceTrace random_trace(sim::RngStream& rng) {
  trace::PriceTrace t;
  SimTime at = rng.uniform_int(0, 5 * kHour);
  const auto points = rng.uniform_int(1, 60);
  for (std::int64_t i = 0; i < points; ++i) {
    t.append(at, rng.uniform(0.005, 0.5));
    at += rng.uniform_int(0, 2) == 0 ? rng.uniform_int(1, kMinute)
                                     : rng.uniform_int(1, 3 * kHour);
  }
  t.set_end(at + rng.uniform_int(0, 10 * kHour));
  return t;
}

TEST(SpotMeterDifferential, RandomTracesAndLeases) {
  sim::RngFactory factory(20150615);
  sim::RngStream rng = factory.stream("spot-meter");
  int billed = 0;
  int thrown = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const trace::PriceTrace t = random_trace(rng);
    // Launches around the trace, before its start included; leases from a
    // millisecond to two days, past the end included.
    const SimTime launch = t.start() + rng.uniform_int(-kHour, t.end() - t.start());
    const SimTime end = launch + (rng.uniform_int(0, 3) == 0
                                      ? rng.uniform_int(0, kHour)
                                      : rng.uniform_int(0, 48 * kHour));
    for (const auto cause :
         {TerminationCause::kCustomer, TerminationCause::kProviderRevoked}) {
      if (expect_same(t, launch, end, cause)) {
        ++billed;
      } else {
        ++thrown;
      }
    }
  }
  EXPECT_GT(billed, 2000);  // not vacuous either way
  EXPECT_GT(thrown, 500);
}

TEST(SpotMeterDifferential, ShortLeasesAndHourEdges) {
  trace::PriceTrace t;
  t.append(0, 0.03);
  t.append(30 * kMinute, 0.07);
  t.append(kHour, 0.011);
  t.append(2 * kHour + 1, 0.2);
  t.set_end(4 * kHour);
  for (const SimTime launch : {SimTime{0}, SimTime{1}, 30 * kMinute, kHour - 1, kHour}) {
    for (const SimTime span : {SimTime{1}, kMinute, kHour - 1, kHour, kHour + 1,
                               2 * kHour, 2 * kHour + 1, 3 * kHour - 1}) {
      for (const auto cause :
           {TerminationCause::kCustomer, TerminationCause::kProviderRevoked}) {
        expect_same(t, launch, launch + span, cause);
      }
    }
  }
  // A revoked lease shorter than an hour bills nothing and reads no price,
  // even one launched outside the trace.
  EXPECT_EQ(spot_cost(t, 10 * kHour, 10 * kHour + kMinute,
                      TerminationCause::kProviderRevoked),
            0.0);
  EXPECT_THROW((void)spot_cost(t, 10 * kHour, 10 * kHour + kMinute,
                               TerminationCause::kCustomer),
               std::out_of_range);
  EXPECT_THROW((void)spot_cost(t, kHour, 0, TerminationCause::kCustomer),
               std::invalid_argument);
  EXPECT_THROW((void)spot_cost(trace::PriceTrace{}, 0, kHour, TerminationCause::kCustomer),
               std::out_of_range);
}

TEST(SpotMeterDifferential, PushFedTraceExtendedPastItsLastPoint) {
  sim::Simulation s;
  SpotMarket market(s, MarketId{"live-1a", InstanceSize::kSmall}, 0.06, 0);
  market.prime(0.02);
  s.at(20 * kMinute, [&] { market.push_price(0.04); });
  s.at(90 * kMinute, [&] { market.push_price(0.015); });
  s.at(90 * kMinute + 1, [&] { market.push_price(0.5); });
  s.run_until(3 * kHour);
  // The last commit was at 90 min + 1 ms; billing through later instants
  // extends the window over the price that has held since.
  for (const SimTime through : {2 * kHour, 5 * kHour + 7, 30 * kHour}) {
    const trace::PriceTrace& t = market.billable_trace(through);
    ASSERT_EQ(t.end(), through);
    for (const SimTime launch : {SimTime{0}, 10 * kMinute, 90 * kMinute, 2 * kHour - 5}) {
      for (const auto cause :
           {TerminationCause::kCustomer, TerminationCause::kProviderRevoked}) {
        EXPECT_TRUE(expect_same(t, launch, through, cause));
      }
    }
  }
}

}  // namespace
}  // namespace spothost::cloud
