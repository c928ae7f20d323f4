// The routing rules of the lease-owner interface: who hears a revocation
// warning, with which tag, and when nobody does.
//
//  * a warning reaches an owner only if the instance was armed, and an
//    unarmed instance is never warning-faulted;
//  * the tag of the last arm_revocation wins;
//  * a delayed or dropped warning is still delivered after the customer
//    ended the lease, to the owner and tag armed when it was issued;
//  * a destroyed CloudScheduler receives nothing.
#include "cloud/provider.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "faults/injector.hpp"
#include "sched/baselines.hpp"
#include "sched/market_watcher.hpp"
#include "sched/scheduler.hpp"
#include "simcore/simulation.hpp"
#include "workload/service.hpp"

namespace spothost::cloud {
namespace {

using faults::FaultKind;
using faults::FaultPlan;
using sim::kHour;
using sim::kSecond;

const MarketId kSmallEast{"us-east-1a", InstanceSize::kSmall};

struct Warning {
  InstanceId instance;
  LeaseTag tag;
  sim::SimTime t_term;
  sim::SimTime at;
};

/// Records every warning with its arrival time; grants and failures are
/// counted.
struct WarningLog final : LeaseOwner {
  explicit WarningLog(const sim::Clock& c) : clock(c) {}
  void on_ready(InstanceId, LeaseTag) override { ++ready; }
  void on_failed(InstanceId, LeaseTag, AllocFailure) override { ++failed; }
  void on_revocation(InstanceId instance, LeaseTag tag, sim::SimTime t_term) override {
    warnings.push_back({instance, tag, t_term, clock.now()});
  }
  const sim::Clock& clock;
  int ready = 0;
  int failed = 0;
  std::vector<Warning> warnings;
};

/// One market: 0.02 until the spike to 0.50 at 2 h (above every bid here),
/// back to 0.02 at 3 h. Deterministic allocation latencies; the fault
/// plan, if any, is attached before the provider sees a request.
class LeaseOwnerParity : public ::testing::Test {
 protected:
  void build(std::optional<FaultPlan> plan = std::nullopt) {
    if (plan) {
      injector_.emplace(sim_, rng_, *plan);
      sim_.set_fault_injector(&*injector_);
    }
    trace::PriceTrace t;
    t.append(0, 0.02);
    t.append(2 * kHour, 0.50);
    t.append(3 * kHour, 0.02);
    t.set_end(48 * kHour);
    provider_.add_market(kSmallEast, std::move(t), 0.06);
    AllocationLatency lat;
    lat.on_demand_cv = 0.0;
    lat.spot_mean_s = 240.0;
    lat.spot_cv = 0.0;
    provider_.set_allocation_latency("us-east-1a", lat);
    provider_.start();
  }

  InstanceId running_spot() {
    const InstanceId iid = provider_.request_spot(kSmallEast, 0.06, me_, 0);
    return iid;
  }

  sim::Simulation sim_;
  sim::RngFactory rng_{4242};
  std::optional<faults::FaultInjector> injector_;
  CloudProvider provider_{sim_, rng_};
  WarningLog log_{sim_};
  LeaseOwnerId me_ = provider_.add_owner(&log_);
};

TEST_F(LeaseOwnerParity, OnlyArmedInstancesAreWarnedOrWarningFaulted) {
  FaultPlan plan;
  plan.with_rate(FaultKind::kWarningDropped, 1.0);
  build(plan);
  const InstanceId armed = running_spot();
  const InstanceId unarmed = running_spot();
  sim_.run_until(kHour);
  provider_.arm_revocation(armed, 9);
  sim_.run_until(5 * kHour);

  // Both were revoked; only the armed one was told, and only its warning
  // drew from the fault stream.
  EXPECT_EQ(provider_.instance(armed).state, InstanceState::kTerminated);
  EXPECT_EQ(provider_.instance(unarmed).state, InstanceState::kTerminated);
  ASSERT_EQ(log_.warnings.size(), 1u);
  EXPECT_EQ(log_.warnings[0].instance, armed);
  EXPECT_EQ(log_.warnings[0].tag, 9);
  EXPECT_EQ(log_.warnings[0].at, log_.warnings[0].t_term);  // dropped: no notice
  EXPECT_EQ(injector_->injected(FaultKind::kWarningDropped), 1u);
}

TEST_F(LeaseOwnerParity, LastArmRevocationTagWins) {
  build();
  const InstanceId iid = running_spot();
  sim_.run_until(kHour);
  provider_.arm_revocation(iid, 1);
  provider_.arm_revocation(iid, 4);
  sim_.run_until(5 * kHour);
  ASSERT_EQ(log_.warnings.size(), 1u);
  EXPECT_EQ(log_.warnings[0].tag, 4);
  EXPECT_EQ(log_.warnings[0].at, 2 * kHour);
}

TEST_F(LeaseOwnerParity, DelayedWarningStillArrivesAfterCustomerTermination) {
  FaultPlan plan;
  plan.with_rate(FaultKind::kWarningDelayed, 1.0);
  plan.warning_delay_s = 60.0;
  build(plan);
  const InstanceId iid = running_spot();
  sim_.run_until(kHour);
  provider_.arm_revocation(iid, 2);
  // Warned at 2 h with delivery due at 2 h + 60 s. Before that the
  // customer ends the lease and re-arms; neither touches the pending
  // delivery, which goes out with the tag armed at the warning.
  sim_.at(2 * kHour + 30 * kSecond, [&] {
    provider_.arm_revocation(iid, 3);  // already warned: no new warning
    provider_.terminate(iid);
  });
  sim_.run_until(5 * kHour);

  ASSERT_EQ(log_.warnings.size(), 1u);
  EXPECT_EQ(log_.warnings[0].instance, iid);
  EXPECT_EQ(log_.warnings[0].tag, 2);
  EXPECT_EQ(log_.warnings[0].at, 2 * kHour + 60 * kSecond);
  EXPECT_EQ(log_.warnings[0].t_term, 2 * kHour + 120 * kSecond);
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  EXPECT_EQ(provider_.ledger().records()[0].cause, TerminationCause::kCustomer);
}

TEST_F(LeaseOwnerParity, DroppedWarningStillArrivesAfterCustomerTermination) {
  FaultPlan plan;
  plan.with_rate(FaultKind::kWarningDropped, 1.0);
  build(plan);
  const InstanceId iid = running_spot();
  sim_.run_until(kHour);
  provider_.arm_revocation(iid, 6);
  sim_.at(2 * kHour + 30 * kSecond, [&] { provider_.terminate(iid); });
  sim_.run_until(5 * kHour);

  ASSERT_EQ(log_.warnings.size(), 1u);
  EXPECT_EQ(log_.warnings[0].tag, 6);
  EXPECT_EQ(log_.warnings[0].at, 2 * kHour + 120 * kSecond);
  EXPECT_EQ(provider_.instance(iid).state, InstanceState::kTerminated);
}

TEST_F(LeaseOwnerParity, RemovedOwnerHearsNothingScheduledForIt) {
  FaultPlan plan;
  plan.with_rate(FaultKind::kWarningDelayed, 1.0);
  plan.warning_delay_s = 60.0;
  build(plan);
  const InstanceId warned = running_spot();
  sim_.run_until(kHour);
  provider_.arm_revocation(warned, 0);
  sim_.at(2 * kHour, [&] { running_spot(); });  // a grant still pending
  sim_.at(2 * kHour + 30 * kSecond, [&] { provider_.remove_owner(me_); });
  sim_.run_until(5 * kHour);

  EXPECT_TRUE(log_.warnings.empty());
  EXPECT_EQ(log_.ready, 1);  // only the first grant, before the removal
  EXPECT_EQ(log_.failed, 0);
  EXPECT_EQ(provider_.instance(warned).state, InstanceState::kTerminated);
}

// A reactive scheduler holds a spot server when the 2 h spike warns it,
// with delivery delayed by 60 s. Alive, the warning starts its forced flow,
// which requests an on-demand replacement at once; destroyed in between,
// it is told nothing, so nothing more is requested.
TEST_F(LeaseOwnerParity, DestroyedSchedulerReceivesNothing) {
  for (const bool destroy : {false, true}) {
    SCOPED_TRACE(destroy ? "destroyed" : "alive");
    sim::Simulation sim;
    sim::RngFactory rng(4242);
    FaultPlan plan;
    plan.with_rate(FaultKind::kWarningDelayed, 1.0);
    plan.warning_delay_s = 60.0;
    faults::FaultInjector injector(sim, rng, plan);
    sim.set_fault_injector(&injector);
    CloudProvider provider(sim, rng);
    trace::PriceTrace t;
    t.append(0, 0.02);
    t.append(2 * kHour, 0.50);
    t.append(3 * kHour, 0.02);
    t.set_end(48 * kHour);
    provider.add_market(kSmallEast, std::move(t), 0.06);
    provider.start();
    sched::MarketWatcher watcher(sim, provider);
    workload::AlwaysOnService service("svc", virt::default_spec_for_memory(1.7, 8.0));
    auto cfg = sched::reactive_config(kSmallEast);
    cfg.timing_jitter_cv = 0.0;
    auto scheduler = std::make_unique<sched::CloudScheduler>(
        sim, provider, watcher, service, cfg, rng.stream("timing"));
    scheduler->start();

    sim.run_until(2 * kHour + 30 * kSecond);
    ASSERT_EQ(provider.instance(1).state, InstanceState::kWarned);
    if (destroy) scheduler.reset();
    sim.run_until(6 * kHour);

    EXPECT_EQ(provider.instance(1).state, InstanceState::kTerminated);
    ASSERT_FALSE(provider.ledger().records().empty());
    EXPECT_EQ(provider.ledger().records()[0].instance_id, 1u);
    EXPECT_EQ(provider.ledger().records()[0].cause, TerminationCause::kProviderRevoked);
    if (destroy) {
      EXPECT_THROW((void)provider.instance(2), std::out_of_range);
    } else {
      EXPECT_EQ(provider.instance(2).mode, BillingMode::kOnDemand);
      EXPECT_EQ(provider.instance(2).requested_at, 2 * kHour + 60 * kSecond);
    }
  }
}

}  // namespace
}  // namespace spothost::cloud
