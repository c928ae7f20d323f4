// Differential test for the merge step of SyntheticSpotModel::generate: the
// sweep-line merge (sorted breakpoint vector, forward-only base index,
// active-spike list) must give the same trace, bit for bit, as the merge it
// replaced, which inserted every breakpoint into a std::map and evaluated
// each one with an upper_bound over the base steps and a scan of every
// spike. That generate is kept here, verbatim, as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/rng.hpp"
#include "trace/profiles.hpp"
#include "trace/synthetic.hpp"

namespace spothost::trace {
namespace {

using sim::kDay;
using sim::kHour;
using sim::kMinute;
using sim::SimTime;

// --- the reference: the map-based generate ------------------------------

constexpr double kMinPrice = 0.001;

double ref_spike_level_at(const SpikeEvent& s, SimTime t, double base_floor) {
  if (t < s.start || t >= s.end) return 0.0;
  const SimTime since = t - s.start;
  const int step = (s.ramp_spacing > 0)
                       ? static_cast<int>(since / s.ramp_spacing)
                       : s.ramp_steps;
  const int level = std::min(step + 1, s.ramp_steps);
  const double frac = static_cast<double>(level) / static_cast<double>(s.ramp_steps);
  return std::max(base_floor, s.magnitude * frac);
}

SpikeEvent ref_draw_spike(SimTime at, double on_demand_price,
                          const MarketProfile& profile, sim::RngStream& rng) {
  SpikeEvent s;
  s.start = at;
  double magnitude =
      on_demand_price * rng.pareto(profile.spike_pareto_xm, profile.spike_pareto_alpha);
  magnitude = std::min(magnitude, on_demand_price * profile.spike_cap_multiple);
  s.magnitude = magnitude;
  const double duration_min = rng.lognormal_mean_cv(profile.spike_duration_mean_minutes,
                                                    profile.spike_duration_cv);
  const SimTime duration =
      std::max<SimTime>(kMinute, sim::from_seconds(duration_min * 60.0));
  s.end = at + duration;
  s.ramp_steps = (profile.max_ramp_steps <= 1)
                     ? 1
                     : static_cast<int>(rng.uniform_int(1, profile.max_ramp_steps));
  s.ramp_spacing = (s.ramp_steps > 1)
                       ? sim::from_seconds(std::max(
                             1.0, rng.exponential(profile.ramp_step_mean_seconds)))
                       : 0;
  return s;
}

PriceTrace ref_generate(const MarketProfile& profile, double on_demand_price,
                        SimTime horizon, sim::RngStream& rng,
                        const SharedSpikeSchedule* shared) {
  if (horizon <= 0) throw std::invalid_argument("SyntheticSpotModel: horizon <= 0");
  if (on_demand_price <= 0) {
    throw std::invalid_argument("SyntheticSpotModel: on-demand price <= 0");
  }

  std::vector<PricePoint> base;
  const double mean_base = on_demand_price * profile.base_fraction;
  auto draw_base = [&]() {
    const double level = mean_base * std::exp(rng.normal(0.0, profile.base_jitter_sigma));
    return std::max(kMinPrice, level);
  };
  SimTime t = 0;
  base.push_back({0, draw_base()});
  while (true) {
    const double gap_min = rng.exponential(profile.base_change_mean_minutes);
    t += std::max<SimTime>(sim::kSecond, sim::from_seconds(gap_min * 60.0));
    if (t >= horizon) break;
    base.push_back({t, draw_base()});
  }

  std::vector<SpikeEvent> spikes;
  const double own_rate = profile.spike_rate_per_day * (1.0 - profile.shared_spike_fraction);
  if (own_rate > 0) {
    const double mean_gap_s = 86400.0 / own_rate;
    SimTime st = sim::from_seconds(rng.exponential(mean_gap_s));
    while (st < horizon) {
      spikes.push_back(ref_draw_spike(st, on_demand_price, profile, rng));
      st += sim::from_seconds(rng.exponential(mean_gap_s));
    }
  }
  if (shared != nullptr && profile.shared_spike_fraction > 0) {
    for (const SpikeEvent& s : shared->spikes()) {
      if (rng.chance(profile.shared_spike_fraction) && s.start < horizon) {
        SpikeEvent scaled = s;
        scaled.magnitude *= on_demand_price;
        spikes.push_back(scaled);
      }
    }
  }

  std::map<SimTime, char> breakpoints;
  for (const auto& b : base) breakpoints[b.time];
  for (const auto& s : spikes) {
    for (int r = 0; r < s.ramp_steps; ++r) {
      const SimTime rt = s.start + static_cast<SimTime>(r) * s.ramp_spacing;
      if (rt < horizon) breakpoints[rt];
    }
    if (s.end < horizon) breakpoints[s.end];
  }

  auto base_at = [&](SimTime when) {
    auto it = std::upper_bound(
        base.begin(), base.end(), when,
        [](SimTime lhs, const PricePoint& p) { return lhs < p.time; });
    return std::prev(it)->price;
  };

  PriceTrace out;
  for (const auto& [when, unused] : breakpoints) {
    (void)unused;
    double price = base_at(when);
    for (const auto& s : spikes) {
      price = std::max(price, ref_spike_level_at(s, when, price));
    }
    if (out.empty()) {
      out.append(when, price);
    } else if (when > out.points().back().time) {
      out.append(when, price);
    }
  }
  out.set_end(horizon);
  return out;
}

// --- comparison ---------------------------------------------------------

/// Runs both generates from identically seeded streams and compares every
/// point's time and price bits, the end, and where each stream was left.
void expect_same_trace(const MarketProfile& profile, double on_demand_price,
                       SimTime horizon, std::uint64_t seed,
                       const SharedSpikeSchedule* shared) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  sim::RngStream rng(seed);
  sim::RngStream ref_rng(seed);
  const PriceTrace got =
      SyntheticSpotModel::generate(profile, on_demand_price, horizon, rng, shared);
  const PriceTrace want = ref_generate(profile, on_demand_price, horizon, ref_rng, shared);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PricePoint& g = got.points()[i];
    const PricePoint& w = want.points()[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.time), std::bit_cast<std::uint64_t>(w.time))
        << "point " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.price), std::bit_cast<std::uint64_t>(w.price))
        << "point " << i << " at " << g.time;
  }
  EXPECT_EQ(got.end(), want.end());
  EXPECT_EQ(rng.engine()(), ref_rng.engine()());
}

constexpr int kSeeds = 50;
constexpr SimTime kMonth = 30 * kDay;

TEST(SyntheticMergeDifferential, EveryBuiltInProfileWithItsRegionSchedule) {
  // The MarketTraceSet wiring: one shared schedule per region, drawn from
  // the region's small profile, adopted by every size.
  double on_demand = 0.06;
  for (const std::string_view size : canonical_sizes()) {
    for (const std::string_view region : canonical_regions()) {
      SCOPED_TRACE(std::string(region) + "/" + std::string(size));
      const MarketProfile profile = profile_for(region, size);
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        sim::RngStream shared_rng(seed ^ 0x5eedULL);
        const SharedSpikeSchedule shared = SyntheticSpotModel::generate_shared_spikes(
            region_shared_spike_rate(region), profile_for(region, "small"), kMonth,
            shared_rng);
        expect_same_trace(profile, on_demand, kMonth, seed, &shared);
        if (HasFatalFailure()) return;
      }
    }
    on_demand *= 2;
  }
}

TEST(SyntheticMergeDifferential, ManyOverlappingMultiStepRamps) {
  MarketProfile p;
  p.spike_rate_per_day = 40.0;
  p.max_ramp_steps = 8;
  p.ramp_step_mean_seconds = 900.0;
  p.spike_duration_mean_minutes = 240.0;
  p.shared_spike_fraction = 0.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_same_trace(p, 0.24, 7 * kDay, seed, nullptr);
    if (HasFatalFailure()) return;
  }
  // Ramps that outlast the spike: later ramp steps fall after its end.
  p.ramp_step_mean_seconds = 3600.0;
  p.spike_duration_mean_minutes = 20.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_same_trace(p, 0.24, 7 * kDay, seed, nullptr);
    if (HasFatalFailure()) return;
  }
}

TEST(SyntheticMergeDifferential, SpikesEndingAtOrAfterTheHorizon) {
  MarketProfile p;
  p.spike_rate_per_day = 12.0;
  p.spike_duration_mean_minutes = 24.0 * 60.0;
  p.max_ramp_steps = 5;
  p.ramp_step_mean_seconds = 3600.0;
  p.shared_spike_fraction = 0.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_same_trace(p, 0.12, 6 * kHour, seed, nullptr);
    if (HasFatalFailure()) return;
  }
  // Hand-placed: one spike ends exactly at the horizon, one after it with
  // ramp steps crossing it, one starts on a base step at 0.
  const SimTime horizon = 2 * kHour;
  const SharedSpikeSchedule shared({
      {0, 10 * kMinute, 3.0, 2, 5 * kMinute},
      {30 * kMinute, horizon, 2.0, 3, 20 * kMinute},
      {90 * kMinute, horizon + kHour, 5.0, 4, 15 * kMinute},
      {100 * kMinute, 100 * kMinute, 9.0, 1, 0},  // empty: never active
  });
  p.shared_spike_fraction = 1.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_same_trace(p, 0.12, horizon, seed, &shared);
    if (HasFatalFailure()) return;
  }
}

TEST(SyntheticMergeDifferential, SharedSpikeSchedule) {
  MarketProfile p;
  p.spike_rate_per_day = 6.0;
  p.shared_spike_fraction = 0.6;
  p.max_ramp_steps = 4;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    sim::RngStream shared_rng(seed * 7919);
    const SharedSpikeSchedule shared =
        SyntheticSpotModel::generate_shared_spikes(8.0, p, 10 * kDay, shared_rng);
    ASSERT_FALSE(shared.spikes().empty());
    expect_same_trace(p, 0.48, 10 * kDay, seed, &shared);
    if (HasFatalFailure()) return;
  }
}

TEST(SyntheticMergeDifferential, ZeroSpikeRate) {
  MarketProfile p;
  p.spike_rate_per_day = 0.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_same_trace(p, 0.06, kMonth, seed, nullptr);
    if (HasFatalFailure()) return;
  }
}

TEST(SyntheticMergeDifferential, OneMinuteHorizon) {
  MarketProfile p;
  p.spike_rate_per_day = 2000.0;  // a few spikes even in one minute
  p.base_change_mean_minutes = 0.1;
  p.max_ramp_steps = 4;
  p.ramp_step_mean_seconds = 5.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_same_trace(p, 0.06, kMinute, seed, nullptr);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace spothost::trace
