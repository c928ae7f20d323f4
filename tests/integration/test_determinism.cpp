// Reproducibility: identical (seed, config) pairs must give bit-identical
// metrics — the foundation for every experiment in bench/ — and, with a
// tracer attached, byte-identical JSONL trace streams.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "metrics/experiment.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"
#include "sched/baselines.hpp"

namespace spothost {
namespace {

using cloud::InstanceSize;
using sim::kDay;

sched::Scenario scenario(std::uint64_t seed) {
  sched::Scenario s;
  s.seed = seed;
  s.horizon = 10 * kDay;
  s.regions = {"us-east-1a", "us-east-1b"};
  s.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  return s;
}

void expect_identical(const metrics::RunMetrics& a, const metrics::RunMetrics& b) {
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_DOUBLE_EQ(a.attributed_cost, b.attributed_cost);
  EXPECT_DOUBLE_EQ(a.unavailability_pct, b.unavailability_pct);
  EXPECT_DOUBLE_EQ(a.downtime_s, b.downtime_s);
  EXPECT_EQ(a.forced, b.forced);
  EXPECT_EQ(a.planned, b.planned);
  EXPECT_EQ(a.reverse, b.reverse);
  EXPECT_EQ(a.cancelled_planned, b.cancelled_planned);
  EXPECT_EQ(a.outages, b.outages);
}

class DeterminismSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(DeterminismSweep, SameSeedSameMetrics) {
  const auto& [seed, mode] = GetParam();
  auto cfg = (mode == 0)
                 ? sched::proactive_config({"us-east-1a", InstanceSize::kSmall})
                 : (mode == 1)
                       ? sched::reactive_config({"us-east-1a", InstanceSize::kSmall})
                       : sched::pure_spot_config({"us-east-1a", InstanceSize::kSmall});
  if (mode == 0) cfg.scope = sched::MarketScope::kMultiMarket;
  const auto a = metrics::run_hosting_scenario(scenario(seed), cfg);
  const auto b = metrics::run_hosting_scenario(scenario(seed), cfg);
  expect_identical(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, DeterminismSweep,
    ::testing::Combine(::testing::Values(1u, 7u, 4242u),
                       ::testing::Values(0, 1, 2)));

std::string traced_run_jsonl(std::uint64_t seed) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiMarket;
  (void)metrics::run_hosting_scenario(scenario(seed), cfg, nullptr, &tracer);
  return os.str();
}

TEST(Determinism, SameSeedGivesByteIdenticalTraceStream) {
  // Events carry simulation time only — never wall clock — so the full
  // serialized stream must be reproducible to the byte.
  const auto a = traced_run_jsonl(7);
  const auto b = traced_run_jsonl(7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsGiveDifferentTraceStreams) {
  EXPECT_NE(traced_run_jsonl(1), traced_run_jsonl(2));
}

TEST(Determinism, DifferentSeedsGiveDifferentRuns) {
  const auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  const auto a = metrics::run_hosting_scenario(scenario(1), cfg);
  const auto b = metrics::run_hosting_scenario(scenario(2), cfg);
  EXPECT_NE(a.total_cost, b.total_cost);
}

TEST(Determinism, SimulationIsFinite) {
  // A full month over 16 markets finishes with a bounded event count.
  sched::World world(sched::Scenario{.seed = 3, .horizon = 30 * kDay});
  workload::AlwaysOnService service("svc", virt::VmSpec{});
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiRegion;
  sched::CloudScheduler scheduler(world.clock(), world.provider(), service,
                                  cfg, world.stream("t"));
  scheduler.start();
  world.engine().run_until(world.horizon());
  EXPECT_LT(world.engine().dispatched(), 2'000'000u);
  EXPECT_GT(world.engine().dispatched(), 100u);
}

}  // namespace
}  // namespace spothost
