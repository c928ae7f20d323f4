#include "sched/config.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "trace/csv.hpp"
#include "trace/stats.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;

TEST(Table1Latency, MatchesPaperMeans) {
  EXPECT_DOUBLE_EQ(table1_allocation_latency("us-east-1a").on_demand_mean_s, 94.85);
  EXPECT_DOUBLE_EQ(table1_allocation_latency("us-east-1a").spot_mean_s, 281.47);
  EXPECT_DOUBLE_EQ(table1_allocation_latency("us-west-1a").on_demand_mean_s, 93.63);
  EXPECT_DOUBLE_EQ(table1_allocation_latency("us-west-1a").spot_mean_s, 219.77);
  EXPECT_DOUBLE_EQ(table1_allocation_latency("eu-west-1a").on_demand_mean_s, 98.08);
  EXPECT_DOUBLE_EQ(table1_allocation_latency("eu-west-1a").spot_mean_s, 233.37);
}

TEST(Table1Latency, SpotSlowerThanOnDemandEverywhere) {
  for (const char* region : {"us-east-1a", "us-east-1b", "us-west-1a", "eu-west-1a"}) {
    const auto lat = table1_allocation_latency(region);
    EXPECT_GT(lat.spot_mean_s, 2.0 * lat.on_demand_mean_s) << region;
  }
}

TEST(World, DefaultScenarioBuildsAllSixteenMarkets) {
  World world(Scenario{.seed = 1, .horizon = 2 * kDay});
  EXPECT_EQ(world.provider().all_markets().size(), 16u);
  EXPECT_EQ(world.provider().regions().size(), 4u);
}

TEST(World, RestrictedScenario) {
  Scenario s;
  s.seed = 1;
  s.horizon = 2 * kDay;
  s.regions = {"us-east-1a"};
  s.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  World world(s);
  EXPECT_EQ(world.provider().all_markets().size(), 2u);
}

TEST(World, MarketTracesSpanHorizon) {
  World world(Scenario{.seed = 5, .horizon = 3 * kDay});
  for (const auto& market : world.provider().all_markets()) {
    const auto& t = world.provider().market(market).price_trace();
    EXPECT_EQ(t.end(), 3 * kDay) << market.str();
    EXPECT_FALSE(t.empty());
  }
}

TEST(World, OnDemandPricesFollowCatalog) {
  World world(Scenario{.seed = 1, .horizon = kDay});
  EXPECT_DOUBLE_EQ(
      world.provider().od_price({"us-east-1a", InstanceSize::kSmall}), 0.06);
  EXPECT_NEAR(world.provider().od_price({"eu-west-1a", InstanceSize::kXLarge}),
              0.48 * 1.15, 1e-12);
}

TEST(World, SpotMostlyUndercutsOnDemand) {
  World world(Scenario{.seed = 11, .horizon = 14 * kDay});
  for (const auto& market : world.provider().all_markets()) {
    const auto& t = world.provider().market(market).price_trace();
    const double od = world.provider().od_price(market);
    EXPECT_GT(t.fraction_below(od, 0, 14 * kDay), 0.85) << market.str();
  }
}

TEST(World, SameSeedIsBitReproducible) {
  const Scenario s{.seed = 77, .horizon = 2 * kDay};
  World a(s);
  World b(s);
  for (const auto& market : a.provider().all_markets()) {
    const auto& ta = a.provider().market(market).price_trace();
    const auto& tb = b.provider().market(market).price_trace();
    ASSERT_EQ(ta.size(), tb.size()) << market.str();
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta.points()[i].time, tb.points()[i].time);
      EXPECT_DOUBLE_EQ(ta.points()[i].price, tb.points()[i].price);
    }
  }
}

TEST(World, DifferentSeedsDiffer) {
  World a(Scenario{.seed = 1, .horizon = 2 * kDay});
  World b(Scenario{.seed = 2, .horizon = 2 * kDay});
  const auto market = a.provider().all_markets().front();
  const auto& ta = a.provider().market(market).price_trace();
  const auto& tb = b.provider().market(market).price_trace();
  bool identical = ta.size() == tb.size();
  if (identical) {
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (ta.points()[i].time != tb.points()[i].time ||
          ta.points()[i].price != tb.points()[i].price) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(World, IntraRegionCorrelationExceedsCrossRegion) {
  // The shared spike schedule correlates markets within a region; across
  // regions there is no shared component. Average over seeds to beat noise.
  double intra = 0.0, cross = 0.0;
  const int seeds = 6;
  for (int i = 0; i < seeds; ++i) {
    World world(Scenario{.seed = 100u + static_cast<std::uint64_t>(i),
                         .horizon = 14 * kDay});
    const auto& p = world.provider();
    const auto& east_small =
        p.market({"us-east-1a", InstanceSize::kSmall}).price_trace();
    const auto& east_large =
        p.market({"us-east-1a", InstanceSize::kLarge}).price_trace();
    const auto& west_small =
        p.market({"us-west-1a", InstanceSize::kSmall}).price_trace();
    intra += trace::trace_correlation(east_small, east_large);
    cross += trace::trace_correlation(east_small, west_small);
  }
  EXPECT_GT(intra / seeds, cross / seeds);
  // And correlation stays "low" in absolute terms (Fig. 8(b)): below 0.5.
  EXPECT_LT(intra / seeds, 0.5);
}

TEST(World, InvalidHorizonRejected) {
  EXPECT_THROW(World(Scenario{.seed = 1, .horizon = 0}), std::invalid_argument);
}

TEST(World, ShardsOtherThanZeroOrOneRejected) {
  // There is one engine, the serial one: 0 and 1 both select it.
  for (const int shards : {0, 1}) {
    Scenario s{.seed = 1, .horizon = kDay};
    s.shards = shards;
    EXPECT_NO_THROW((void)normalized_scenario(s)) << shards;
  }
  for (const int shards : {-1, 2, 4}) {
    Scenario s{.seed = 1, .horizon = kDay};
    s.shards = shards;
    EXPECT_THROW((void)normalized_scenario(s), std::invalid_argument) << shards;
  }
}

TEST(World, TraceDirOverridesMarketsFromCsv) {
  // Export one synthetic market to CSV, then rebuild a world that loads it:
  // that market must match the file exactly; others stay synthetic.
  const std::string dir = ::testing::TempDir() + "/spothost_traces";
  std::filesystem::create_directories(dir);

  Scenario base;
  base.seed = 31;
  base.horizon = 2 * kDay;
  base.regions = {"us-east-1a"};
  base.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  World source(base);
  const auto& exported =
      source.provider().market({"us-east-1a", InstanceSize::kSmall}).price_trace();
  trace::save_csv_file(exported, dir + "/us-east-1a_small.csv");

  Scenario with_dir = base;
  with_dir.seed = 999;  // different seed: synthetic markets would differ
  with_dir.trace_dir = dir;
  World loaded(with_dir);
  const auto& small =
      loaded.provider().market({"us-east-1a", InstanceSize::kSmall}).price_trace();
  ASSERT_EQ(small.size(), exported.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small.points()[i].time, exported.points()[i].time);
    EXPECT_DOUBLE_EQ(small.points()[i].price, exported.points()[i].price);
  }
  // The large market had no file: synthetic with the new seed, hence not
  // equal to the source world's large trace.
  const auto& large_src =
      source.provider().market({"us-east-1a", InstanceSize::kLarge}).price_trace();
  const auto& large_new =
      loaded.provider().market({"us-east-1a", InstanceSize::kLarge}).price_trace();
  bool identical = large_src.size() == large_new.size();
  if (identical) {
    for (std::size_t i = 0; i < large_src.size(); ++i) {
      if (large_src.points()[i].time != large_new.points()[i].time ||
          large_src.points()[i].price != large_new.points()[i].price) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(World, ShortTraceFileRejected) {
  const std::string dir = ::testing::TempDir() + "/spothost_short_trace";
  std::filesystem::create_directories(dir);
  trace::PriceTrace t;
  t.append(0, 0.01);
  t.set_end(kDay);  // shorter than the 2-day horizon
  trace::save_csv_file(t, dir + "/us-east-1a_small.csv");

  Scenario s;
  s.horizon = 2 * kDay;
  s.regions = {"us-east-1a"};
  s.sizes = {InstanceSize::kSmall};
  s.trace_dir = dir;
  EXPECT_THROW(World{s}, std::invalid_argument);
}

}  // namespace
}  // namespace spothost::sched
