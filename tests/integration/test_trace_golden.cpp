// Golden-trace regression: the layered scheduler (watcher / placement /
// migration engine) must be bit-for-bit behaviour-preserving. This pins the
// full JSONL event trace of one proactive multi-market run — every event,
// every field, every ordering decision — to an FNV-1a hash captured from the
// pre-decomposition monolithic CloudScheduler. Any change to trigger fan-out
// order, RNG draw order, or trace emission points shows up here as a hash
// mismatch long before it shows up as a shifted figure.
//
// If this test fails after an INTENTIONAL behaviour change, re-capture: hash
// the bytes the embedded scenario produces and update the three constants
// together (the byte/line counts make "trace got longer" vs "same events,
// different order" diagnosable from the failure message alone).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"
#include "simcore/simulation.hpp"
#include "spothost.hpp"

namespace spothost {
namespace {

// Captured from the monolithic scheduler at the commit preceding the
// trigger/placement/migration decomposition.
constexpr std::uint64_t kGoldenHash = 2417515329649513819ull;
constexpr std::size_t kGoldenBytes = 230427;
constexpr std::size_t kGoldenLines = 1717;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

sched::Scenario golden_scenario() {
  sched::Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 10 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  scenario.sizes = {cloud::InstanceSize::kSmall, cloud::InstanceSize::kLarge};
  return scenario;
}

sched::SchedulerConfig golden_config() {
  sched::SchedulerConfig cfg =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiMarket;
  return cfg;
}

std::string run_golden_scenario() {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  (void)metrics::run_hosting_scenario(golden_scenario(), golden_config(),
                                      nullptr, &tracer);
  return os.str();
}

/// run_hosting_scenario's wiring over an injected Simulation on `backend`.
std::string run_golden_on(sim::QueueBackend backend) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  sched::World world(golden_scenario(), nullptr,
                     std::make_unique<sim::Simulation>(backend));
  workload::AlwaysOnService service("hosted-service", virt::VmSpec{});
  world.engine().set_tracer(&tracer);
  service.set_tracer(&tracer);
  sched::CloudScheduler scheduler(world.clock(), world.provider(), service,
                                  golden_config(),
                                  world.stream("scheduler-timing"));
  scheduler.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  scheduler.finalize(world.horizon());
  tracer.flush();
  return os.str();
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

void expect_golden(const std::string& text, const std::string& label) {
  EXPECT_EQ(text.size(), kGoldenBytes) << label;
  EXPECT_EQ(count_lines(text), kGoldenLines) << label;
  EXPECT_EQ(fnv1a(text), kGoldenHash) << label;
}

TEST(TraceGolden, ProactiveMultiMarketRunIsByteIdentical) {
  expect_golden(run_golden_scenario(), "default backend");
}

TEST(TraceGolden, HoldsOnBothQueueBackends) {
  // The queue backend is an execution choice: the default heap and the
  // named wheel must reproduce the same bytes.
  for (const auto backend :
       {sim::QueueBackend::kTimingWheel, sim::QueueBackend::kBinaryHeap}) {
    expect_golden(run_golden_on(backend), sim::to_string(backend));
  }
}

// ---- fleet golden: a 5-service checkpointing fleet -------------------------

// Captured like kGoldenHash: after an intentional behaviour change, update
// the four constants together.
constexpr std::uint64_t kFleetGoldenHash = 7930545321851806217ull;
constexpr std::size_t kFleetGoldenBytes = 251419;
constexpr std::size_t kFleetGoldenLines = 1888;
constexpr const char* kFleetGoldenTable =
    R"(| services | cost $  | attributed $ | cost % | mean unavail % | worst unavail % | any down % | max down | forced | planned | reverse |
|----------|---------|--------------|--------|----------------|-----------------|------------|----------|--------|---------|---------|
| 5        | 37.5800 | 14.9759      | 20.800 | 0.02711        | 0.04974         | 0.09870    | 3        | 9      | 2       | 9       |
)";

struct FleetRun {
  std::string jsonl;  ///< full event trace
  std::string table;  ///< rendered fleet-metrics table
};

FleetRun run_fleet_golden(sim::QueueBackend backend) {
  sched::Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 10 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  scenario.sizes = {cloud::InstanceSize::kSmall, cloud::InstanceSize::kLarge};

  sched::FleetConfig cfg;
  cfg.num_services = 5;
  cfg.service_template =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  cfg.service_template.scope = sched::MarketScope::kMultiMarket;
  // Stop-and-copy checkpointing: planned migrations carry real downtime, so
  // the service-local timers (service-up at up_at, degraded-mode ends) are
  // part of the pinned bytes.
  cfg.service_template.combo = virt::MechanismCombo::kCkpt;
  cfg.home_markets = {{"us-east-1a", cloud::InstanceSize::kSmall},
                      {"us-east-1b", cloud::InstanceSize::kSmall}};
  cfg.stagger_placement = true;

  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);

  sched::World world(scenario, nullptr,
                     std::make_unique<sim::Simulation>(backend));
  world.engine().set_tracer(&tracer);
  sched::FleetScheduler fleet(world.clock(), world.provider(), cfg,
                              world.rng());
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
  tracer.flush();

  FleetRun r;
  r.jsonl = os.str();
  const sched::FleetMetrics m = fleet.metrics(world.horizon());
  // The bench-table rendering path (what bench_ablation_fleet prints):
  // every aggregate must reproduce down to the formatted digit.
  metrics::TextTable table({"services", "cost $", "attributed $", "cost %",
                            "mean unavail %", "worst unavail %", "any down %",
                            "max down", "forced", "planned", "reverse"});
  table.add_row({std::to_string(m.services), metrics::fmt(m.total_cost, 4),
                 metrics::fmt(m.attributed_cost, 4),
                 metrics::fmt(m.normalized_cost_pct, 3),
                 metrics::fmt(m.mean_unavailability_pct, 5),
                 metrics::fmt(m.worst_unavailability_pct, 5),
                 metrics::fmt(m.any_down_pct, 5),
                 std::to_string(m.max_concurrent_down),
                 std::to_string(m.total_forced), std::to_string(m.total_planned),
                 std::to_string(m.total_reverse)});
  std::ostringstream ts;
  table.print(ts);
  r.table = ts.str();
  return r;
}

TEST(FleetGolden, CkptFleetMatchesCapturedBytes) {
  for (const auto backend :
       {sim::QueueBackend::kTimingWheel, sim::QueueBackend::kBinaryHeap}) {
    const FleetRun run = run_fleet_golden(backend);
    const char* name = sim::to_string(backend);
    EXPECT_EQ(run.jsonl.size(), kFleetGoldenBytes) << name;
    EXPECT_EQ(count_lines(run.jsonl), kFleetGoldenLines) << name;
    EXPECT_EQ(fnv1a(run.jsonl), kFleetGoldenHash) << name;
    EXPECT_EQ(run.table, kFleetGoldenTable) << name;
  }
}

}  // namespace
}  // namespace spothost
