// The watcher's interest index against the full fan-out it replaces.
//
// Differential: a price step is delivered only to the listeners whose
// declared interest matches it. An observer subscribed before the watcher
// records which watching schedulers the index will skip; one subscribed
// after it re-delivers the step to each of them — exactly the visit the
// old full fan-out made — and asserts that the visit changes nothing: no
// trace event, no event scheduled or cancelled, no lease billed, and no
// change of state, instance or declared interest. Runs over fleets under
// every scheduler shape and both queue backends.
//
// Work counter: on a fleet_month-shaped proactive fleet the index must
// deliver at most 2 % of the (step x watching listener) visits the full
// fan-out made — a machine-independent gate on the fan-out's cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simcore/simulation.hpp"
#include "spothost.hpp"

namespace spothost {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using Interest = sched::MarketWatcher::Interest;

/// Forwards to the world clock, counting every schedule and cancel the
/// fleet makes through it.
struct CountingClock final : sim::Clock {
  explicit CountingClock(sim::Clock& inner_clock) : inner(inner_clock) {}
  [[nodiscard]] sim::SimTime now() const noexcept override { return inner.now(); }
  sim::EventHandle at(sim::SimTime when, Callback cb) override {
    ++ops;
    return sim::EventHandle{this, inner.at(when, std::move(cb)).id()};
  }
  sim::EventHandle after(sim::SimTime delay, Callback cb) override {
    ++ops;
    return sim::EventHandle{this, inner.after(delay, std::move(cb)).id()};
  }
  bool cancel(sim::EventId id) override {
    ++ops;
    return inner.cancel(id);
  }
  [[nodiscard]] obs::Tracer* tracer() const noexcept override { return inner.tracer(); }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept override {
    return inner.fault_injector();
  }

  sim::Clock& inner;
  std::uint64_t ops = 0;
};

struct CountingSink final : obs::TraceSink {
  void on_event(const obs::TraceEvent&) override { ++events; }
  std::uint64_t events = 0;
};

/// A fleet in a world whose every market step is bracketed by the two
/// differential observers.
class DifferentialFleet {
 public:
  DifferentialFleet(const sched::Scenario& scenario, const sched::FleetConfig& config,
                    sim::QueueBackend backend)
      : world_(scenario, nullptr, std::make_unique<sim::Simulation>(backend)),
        clock_(world_.clock()) {
    tracer_.add_sink(&sink_);
    world_.engine().set_tracer(&tracer_);
    fleet_ = std::make_unique<sched::FleetScheduler>(clock_, world_.provider(), config,
                                                     world_.rng());
    for (int i = 0; i < fleet_->size(); ++i) {
      const auto& s = fleet_->scheduler(i);
      auto markets = s.placement().watched_markets(world_.provider(), s.config());
      markets.push_back(s.config().home_market);
      watched_.push_back(std::move(markets));
    }
    // Before the watcher (it subscribes in start()): snapshot the skips.
    for (const auto& id : world_.provider().all_markets()) {
      world_.provider().market(id).subscribe(
          [this](const cloud::SpotMarket& m, double p) { collect_skips(m.id(), p); });
    }
    fleet_->start();
    // After the watcher: re-deliver every skipped step.
    for (const auto& id : world_.provider().all_markets()) {
      world_.provider().market(id).subscribe(
          [this](const cloud::SpotMarket& m, double p) { redeliver(m.id(), p); });
    }
  }

  void run() {
    world_.engine().run_until(world_.horizon());
    world_.provider().finalize(world_.horizon());
    fleet_->finalize(world_.horizon());
  }

  [[nodiscard]] std::uint64_t redeliveries() const noexcept { return redeliveries_; }
  [[nodiscard]] std::uint64_t full_fanout_visits() const noexcept { return visits_; }
  [[nodiscard]] const sched::FleetScheduler& fleet() const noexcept { return *fleet_; }

 private:
  /// Fleet schedulers register in order on a fresh watcher: ids 1..N.
  [[nodiscard]] static sched::MarketWatcher::ListenerId listener_of(std::size_t i) {
    return static_cast<sched::MarketWatcher::ListenerId>(i + 1);
  }
  [[nodiscard]] bool watches(std::size_t i, const MarketId& market) const {
    for (const auto& m : watched_[i]) {
      if (m == market) return true;
    }
    return false;
  }

  void collect_skips(const MarketId& market, double price) {
    skipped_.clear();
    for (std::size_t i = 0; i < watched_.size(); ++i) {
      if (!watches(i, market)) continue;
      ++visits_;
      const Interest in = fleet_->watcher().interest(listener_of(i));
      const bool delivered =
          in.kind == Interest::Kind::kAlways ||
          (in.kind == Interest::Kind::kAbove && in.market == market && price > in.edge);
      if (!delivered) skipped_.push_back(i);
    }
  }

  struct Snapshot {
    std::uint64_t events, clock_ops;
    std::size_t pending, leases;
    sched::CloudScheduler::State state;
    cloud::InstanceId instance;
    Interest interest;
    bool operator==(const Snapshot&) const = default;
  };

  Snapshot snapshot(std::size_t i) {
    const auto& s = fleet_->scheduler(static_cast<int>(i));
    return {sink_.events,
            clock_.ops,
            world_.engine().pending(),
            world_.provider().ledger().records().size(),
            s.state(),
            s.current_instance(),
            fleet_->watcher().interest(listener_of(i))};
  }

  void redeliver(const MarketId& market, double price) {
    if (diverged_) return;
    sched::MarketWatcher::Trigger trigger;
    trigger.kind = sched::MarketWatcher::TriggerKind::kPriceChange;
    trigger.market = market;
    trigger.price = price;
    for (const std::size_t i : skipped_) {
      auto& scheduler =
          const_cast<sched::CloudScheduler&>(fleet_->scheduler(static_cast<int>(i)));
      // The C-style cast is the one cast that may name the scheduler's
      // private TriggerListener base — the surface the watcher calls.
      auto* listener = (sched::MarketWatcher::TriggerListener*)&scheduler;
      const Snapshot before = snapshot(i);
      listener->on_trigger(trigger);
      ++redeliveries_;
      if (!(snapshot(i) == before)) {
        diverged_ = true;
        ADD_FAILURE() << "service " << i << " acted on a withheld step: "
                      << market.str() << " -> " << price << " at t="
                      << world_.clock().now();
        return;
      }
    }
  }

  sched::World world_;
  CountingClock clock_;
  obs::Tracer tracer_;
  CountingSink sink_;
  std::unique_ptr<sched::FleetScheduler> fleet_;
  std::vector<std::vector<MarketId>> watched_;
  std::vector<std::size_t> skipped_;
  std::uint64_t visits_ = 0;
  std::uint64_t redeliveries_ = 0;
  bool diverged_ = false;
};

const MarketId kHome{"us-east-1a", InstanceSize::kSmall};

enum class Shape { kProactive, kReactive, kPureSpot, kMultiMarket, kForecastPortfolio, kFaults };

struct Arm {
  sched::Scenario scenario;
  sched::FleetConfig config;
};

Arm make_arm(Shape shape) {
  Arm arm;
  arm.scenario.seed = 20150615;
  arm.scenario.horizon = 30 * sim::kDay;
  arm.scenario.regions = {"us-east-1a", "us-east-1b", "us-west-1a"};
  arm.scenario.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  arm.config.num_services = 50;
  arm.config.service_template = sched::proactive_config(kHome);
  arm.config.home_markets = {{"us-east-1a", InstanceSize::kSmall},
                             {"us-east-1b", InstanceSize::kSmall},
                             {"us-west-1a", InstanceSize::kLarge}};
  auto& cfg = arm.config.service_template;
  switch (shape) {
    case Shape::kProactive:
      break;
    case Shape::kReactive:
      cfg = sched::reactive_config(kHome);
      break;
    case Shape::kPureSpot:
      cfg = sched::pure_spot_config(kHome);
      break;
    case Shape::kMultiMarket:
      cfg.scope = sched::MarketScope::kMultiMarket;
      arm.config.stagger_placement = true;
      break;
    case Shape::kForecastPortfolio:
      cfg.scope = sched::MarketScope::kMultiRegion;
      cfg.bidding = std::make_shared<const sched::ForecastBidPolicy>();
      cfg.placement = std::make_shared<const sched::PortfolioPlacementPolicy>();
      arm.config.stagger_placement = true;
      break;
    case Shape::kFaults:
      cfg.scope = sched::MarketScope::kMultiMarket;
      arm.config.stagger_placement = true;
      arm.scenario.fault_plan
          .with_rate(faults::FaultKind::kAllocInsufficientCapacity, 0.1)
          .with_rate(faults::FaultKind::kLiveCopyAbort, 0.3);
      break;
  }
  return arm;
}

std::string shape_name(Shape shape) {
  switch (shape) {
    case Shape::kProactive: return "Proactive";
    case Shape::kReactive: return "Reactive";
    case Shape::kPureSpot: return "PureSpot";
    case Shape::kMultiMarket: return "MultiMarket";
    case Shape::kForecastPortfolio: return "ForecastPortfolio";
    case Shape::kFaults: return "Faults";
  }
  return "?";
}

class InterestDifferential
    : public ::testing::TestWithParam<std::tuple<Shape, sim::QueueBackend>> {};

TEST_P(InterestDifferential, WithheldStepsAreNoOps) {
  const auto [shape, backend] = GetParam();
  const Arm arm = make_arm(shape);
  DifferentialFleet fleet(arm.scenario, arm.config, backend);
  fleet.run();
  // Not vacuous: the index withheld steps; and every visit of the full
  // fan-out was either delivered or re-delivered here.
  EXPECT_GT(fleet.redeliveries(), 0u);
  const auto& stats = fleet.fleet().watcher().stats();
  EXPECT_EQ(stats.deliveries + fleet.redeliveries(), fleet.full_fanout_visits());
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, InterestDifferential,
    ::testing::Combine(::testing::Values(Shape::kProactive, Shape::kReactive,
                                         Shape::kPureSpot, Shape::kMultiMarket,
                                         Shape::kForecastPortfolio, Shape::kFaults),
                       ::testing::Values(sim::QueueBackend::kTimingWheel,
                                         sim::QueueBackend::kBinaryHeap)),
    [](const ::testing::TestParamInfo<InterestDifferential::ParamType>& arm) {
      return shape_name(std::get<0>(arm.param)) + "_" +
             sim::to_string(std::get<1>(arm.param));
    });

TEST(InterestFanout, DeliversAtMostTwoPercentOfFullFanoutVisits) {
  sched::Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 30 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b", "us-west-1a"};
  sched::FleetConfig config;
  config.num_services = 2000;
  config.service_template = sched::proactive_config(kHome);
  config.home_markets = {{"us-east-1a", InstanceSize::kSmall},
                         {"us-east-1b", InstanceSize::kSmall},
                         {"us-west-1a", InstanceSize::kSmall}};

  sched::World world(scenario);
  sched::FleetScheduler fleet(world.clock(), world.provider(), config, world.rng());
  // Each service watches exactly its home market (single-market scope), so
  // the full fan-out visited (steps of m) x (services homed in m).
  std::uint64_t visits = 0;
  for (const auto& home : config.home_markets) {
    std::uint64_t homed = 0;
    for (int i = 0; i < fleet.size(); ++i) {
      if (fleet.scheduler(i).config().home_market == home) ++homed;
    }
    world.provider().market(home).subscribe(
        [&visits, homed](const cloud::SpotMarket&, double) { visits += homed; });
  }
  fleet.start();
  world.engine().run_until(world.horizon());

  const auto& stats = fleet.watcher().stats();
  ASSERT_GT(visits, 0u);
  const double share = static_cast<double>(stats.deliveries) / static_cast<double>(visits);
  RecordProperty("delivery_share_pct", std::to_string(100.0 * share));
  EXPECT_LE(share, 0.02) << stats.deliveries << " deliveries of " << visits
                         << " full fan-out visits over " << stats.price_steps
                         << " steps";
}

}  // namespace
}  // namespace spothost
