// The serve parity contract: replaying a recorded price stream through
// live::FeedDriver into push-fed markets produces the *byte-identical*
// decision trace the simulation produces from the same prices pre-loaded as
// traces.
//
// Both sides run on a sim::Simulation (serving on wall time only paces that
// same loop; see live/wall_clock.hpp), so what this pins is the one thing
// that can differ: trace-fed SpotMarkets replaying their own clock events
// against FeedDriver pushing a PriceFeed. Any behavioural drift between the
// two shows up here as a one-byte diff. This is the license for serving
// live with the simulated policy layer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "live/feed_driver.hpp"
#include "live/hosting_session.hpp"
#include "live/price_feed.hpp"
#include "metrics/experiment.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"
#include "sched/baselines.hpp"
#include "sched/market_traces.hpp"
#include "simcore/simulation.hpp"

namespace spothost {
namespace {

using cloud::InstanceSize;
using sim::kDay;

sched::Scenario parity_scenario(std::uint64_t seed) {
  sched::Scenario s;
  s.seed = seed;
  s.horizon = 5 * kDay;
  s.regions = {"us-east-1a", "us-east-1b"};
  s.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  return s;
}

std::string sim_trace(const sched::Scenario& scenario,
                      const sched::SchedulerConfig& config,
                      std::shared_ptr<const sched::MarketTraceSet> traces) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  (void)metrics::run_hosting_scenario(scenario, config, std::move(traces),
                                      &tracer);
  return os.str();
}

struct Replay {
  std::string jsonl;
  double total_cost = 0.0;
};

/// The spothost_serve --mode replay wiring: push-fed markets, prices pushed
/// by a FeedDriver, the simulation run straight to the horizon. It runs on
/// the timing wheel unless told otherwise, so the parity checks also cross
/// queues: sim_trace runs on the default heap.
Replay live_replay(const sched::Scenario& scenario,
                   const sched::SchedulerConfig& config,
                   const sched::MarketTraceSet& traces,
                   sim::QueueBackend backend = sim::QueueBackend::kTimingWheel) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);

  sim::Simulation engine(backend);
  live::SessionSpec spec;
  spec.seed = scenario.seed;
  spec.grace_period = scenario.grace_period;
  spec.config = config;
  for (const auto& entry : traces.markets()) {
    spec.markets.push_back(live::SessionMarket{entry.id, entry.on_demand, nullptr});
  }
  live::HostingSession session(engine, spec);
  session.attach_tracer(&tracer);

  live::TraceReplayFeed feed;
  for (const auto& entry : traces.markets()) {
    feed.add_market(entry.id.str(), &entry.prices);
  }
  live::FeedDriver driver(engine, session.provider(), feed);
  driver.start();
  session.start();
  engine.run_until(scenario.horizon);
  session.finalize(scenario.horizon);
  tracer.flush();
  return Replay{os.str(), session.provider().ledger().total_cost()};
}

TEST(ServeParity, FastReplayMatchesSimulationByteForByte) {
  const auto scenario =
      sched::normalized_scenario(parity_scenario(/*seed=*/7));
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiMarket;
  const auto traces = sched::MarketTraceSet::generate(scenario);

  const std::string sim = sim_trace(scenario, cfg, traces);
  const std::string live = live_replay(scenario, cfg, *traces).jsonl;

  ASSERT_FALSE(sim.empty());
  EXPECT_EQ(sim.size(), live.size());
  EXPECT_EQ(sim, live) << "trace-fed and feed-driven decision streams diverged";
}

TEST(ServeParity, ParityHoldsAcrossSeedsAndPolicies) {
  for (const std::uint64_t seed : {1u, 4242u}) {
    const auto scenario = sched::normalized_scenario(parity_scenario(seed));
    auto cfg = sched::reactive_config({"us-east-1b", InstanceSize::kLarge});
    const auto traces = sched::MarketTraceSet::generate(scenario);
    EXPECT_EQ(sim_trace(scenario, cfg, traces),
              live_replay(scenario, cfg, *traces).jsonl)
        << "seed " << seed;
  }
}

TEST(ServeParity, ParityHoldsOnHeapBackend) {
  // The push-fed side on the heap still matches the trace-fed run; the
  // tests above run the push-fed side on the named timing wheel. The
  // (time, schedule-seq) contract holds on either queue.
  const auto scenario = sched::normalized_scenario(parity_scenario(11));
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  const auto traces = sched::MarketTraceSet::generate(scenario);
  EXPECT_EQ(sim_trace(scenario, cfg, traces),
            live_replay(scenario, cfg, *traces, sim::QueueBackend::kBinaryHeap).jsonl);
}

TEST(ServeParity, LiveBillingMatchesSimulation) {
  // Costs come from the push-fed markets' accumulated billing traces; they
  // must integrate to the same dollars the pre-loaded traces give.
  const auto scenario = sched::normalized_scenario(parity_scenario(3));
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  const auto traces = sched::MarketTraceSet::generate(scenario);
  const auto sim_metrics = metrics::run_hosting_scenario(scenario, cfg, traces);
  EXPECT_DOUBLE_EQ(live_replay(scenario, cfg, *traces).total_cost,
                   sim_metrics.total_cost);
}

}  // namespace
}  // namespace spothost
