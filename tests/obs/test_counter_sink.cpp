#include "obs/counter_sink.hpp"

#include <gtest/gtest.h>

#include "metrics/experiment.hpp"
#include "obs/sink.hpp"
#include "sched/scheduler_config.hpp"

namespace spothost::obs {
namespace {

TEST(CounterSink, CountsByKindAndCode) {
  CounterSink counters;
  TraceEvent e;
  e.kind = EventKind::kMigrationBegin;
  e.code = code::kForced;
  counters.on_event(e);
  counters.on_event(e);
  e.code = code::kPlanned;
  counters.on_event(e);
  e.kind = EventKind::kMarketSwitch;
  e.code = code::kNone;
  counters.on_event(e);

  EXPECT_EQ(counters.count(EventKind::kMigrationBegin), 3u);
  EXPECT_EQ(counters.count(EventKind::kMigrationBegin, code::kForced), 2u);
  EXPECT_EQ(counters.count(EventKind::kMigrationBegin, code::kPlanned), 1u);
  EXPECT_EQ(counters.count(EventKind::kMigrationBegin, code::kReverse), 0u);
  EXPECT_EQ(counters.count(EventKind::kMarketSwitch), 1u);
  EXPECT_EQ(counters.count(EventKind::kOutageBegin), 0u);
  EXPECT_EQ(counters.total(), 4u);

  counters.clear();
  EXPECT_EQ(counters.total(), 0u);
  EXPECT_EQ(counters.count(EventKind::kMigrationBegin, code::kForced), 0u);
}

TEST(CounterSink, StatsMappingFromCounters) {
  CounterSink counters;
  auto emit = [&](EventKind kind, std::uint8_t c, int n) {
    TraceEvent e;
    e.kind = kind;
    e.code = c;
    for (int i = 0; i < n; ++i) counters.on_event(e);
  };
  emit(EventKind::kMigrationBegin, code::kForced, 3);
  emit(EventKind::kMigrationSwitchover, code::kPlanned, 5);
  emit(EventKind::kMigrationSwitchover, code::kReverse, 4);
  emit(EventKind::kMigrationSwitchover, code::kForced, 3);  // not planned/reverse
  emit(EventKind::kMigrationAbandon, code::kAbandonPriceRecovered, 2);
  emit(EventKind::kMigrationAbandon, code::kAbandonDestRevoked, 1);  // no cancel
  emit(EventKind::kMarketSwitch, code::kNone, 6);
  emit(EventKind::kSpotRequestFailed, code::kNone, 7);
  emit(EventKind::kBillingHourTick, code::kOnDemand, 8);

  const auto stats = sched::scheduler_stats_from(counters);
  EXPECT_EQ(stats.forced, 3);
  EXPECT_EQ(stats.planned, 5);
  EXPECT_EQ(stats.reverse, 4);
  EXPECT_EQ(stats.cancelled_planned, 2);
  EXPECT_EQ(stats.market_switches, 6);
  EXPECT_EQ(stats.spot_request_failures, 7);
  EXPECT_EQ(stats.od_hours_started, 8);
}

// The counter-as-backing-store guarantee, end to end: an *external*
// CounterSink attached to the run's tracer must reconstruct exactly the
// SchedulerStats the run reports — i.e. every stats-relevant event is
// emitted exactly once, by exactly one component.
TEST(CounterSink, ExternalSinkMatchesSchedulerStatsOnSeededRun) {
  for (const std::uint64_t seed : {42u, 9001u, 777u}) {
    sched::Scenario scenario;
    scenario.seed = seed;
    scenario.horizon = 10 * sim::kDay;
    const auto cfg =
        sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});

    Tracer tracer;
    CounterSink external;
    tracer.add_sink(&external);
    const auto m = metrics::run_hosting_scenario(scenario, cfg, nullptr, &tracer);

    const auto stats = sched::scheduler_stats_from(external);
    EXPECT_EQ(stats.forced, m.forced) << "seed " << seed;
    EXPECT_EQ(stats.planned, m.planned) << "seed " << seed;
    EXPECT_EQ(stats.reverse, m.reverse) << "seed " << seed;
    EXPECT_EQ(stats.cancelled_planned, m.cancelled_planned) << "seed " << seed;
    EXPECT_EQ(stats.market_switches, m.market_switches) << "seed " << seed;
  }
}

TEST(Tracer, EnabledTracksSinks) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  CounterSink a;
  CounterSink b;
  tracer.add_sink(&a);
  tracer.add_sink(&b);
  EXPECT_TRUE(tracer.enabled());
  EXPECT_EQ(tracer.sink_count(), 2u);

  TraceEvent e;
  e.kind = EventKind::kPriceChange;
  tracer.emit(e);
  EXPECT_EQ(a.total(), 1u);
  EXPECT_EQ(b.total(), 1u);

  tracer.remove_sink(&a);
  tracer.emit(e);
  EXPECT_EQ(a.total(), 1u);
  EXPECT_EQ(b.total(), 2u);
  tracer.remove_sink(&b);
  EXPECT_FALSE(tracer.enabled());
}

}  // namespace
}  // namespace spothost::obs
