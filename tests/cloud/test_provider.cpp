#include "cloud/provider.hpp"
#include "faults/injector.hpp"
#include "simcore/simulation.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace spothost::cloud {
namespace {

using sim::kHour;
using sim::kMinute;
using sim::kSecond;

const MarketId kSmallEast{"us-east-1a", InstanceSize::kSmall};

/// A test-local lease owner: records every notification it receives, with
/// the time it arrived, then runs the matching hook (if set).
struct RecordingOwner final : LeaseOwner {
  struct Ready {
    InstanceId instance;
    LeaseTag tag;
    sim::SimTime at;
  };
  struct Failed {
    InstanceId instance;
    LeaseTag tag;
    AllocFailure reason;
  };
  struct Warning {
    InstanceId instance;
    LeaseTag tag;
    sim::SimTime t_term;
    sim::SimTime at;
  };

  explicit RecordingOwner(const sim::Clock& c) : clock(c) {}

  void on_ready(InstanceId instance, LeaseTag tag) override {
    ready.push_back({instance, tag, clock.now()});
    if (ready_hook) ready_hook(instance);
  }
  void on_failed(InstanceId instance, LeaseTag tag, AllocFailure reason) override {
    failed.push_back({instance, tag, reason});
  }
  void on_revocation(InstanceId instance, LeaseTag tag, sim::SimTime t_term) override {
    warnings.push_back({instance, tag, t_term, clock.now()});
    if (warning_hook) warning_hook(instance);
  }

  const sim::Clock& clock;
  std::vector<Ready> ready;
  std::vector<Failed> failed;
  std::vector<Warning> warnings;
  std::function<void(InstanceId)> ready_hook;
  std::function<void(InstanceId)> warning_hook;
};

// Fixture with one market whose price starts cheap, spikes at t=2h, and
// recovers at t=3h; deterministic (zero-CV) allocation latencies.
class ProviderTest : public ::testing::Test {
 protected:
  ProviderTest() : rng_(1234), provider_(sim_, rng_) {
    trace::PriceTrace t;
    t.append(0, 0.02);
    t.append(2 * kHour, 0.50);  // above any sane bid
    t.append(3 * kHour, 0.02);
    t.set_end(48 * kHour);
    provider_.add_market(kSmallEast, std::move(t), 0.06);
    AllocationLatency lat;
    lat.on_demand_mean_s = 90.0;
    lat.on_demand_cv = 0.0;
    lat.spot_mean_s = 240.0;
    lat.spot_cv = 0.0;
    provider_.set_allocation_latency("us-east-1a", lat);
    provider_.start();
  }

  InstanceId spot(double bid, LeaseTag tag = 0) {
    return provider_.request_spot(kSmallEast, bid, me_, tag);
  }
  InstanceId on_demand(LeaseTag tag = 0) {
    return provider_.request_on_demand(kSmallEast, me_, tag);
  }

  sim::Simulation sim_;
  sim::RngFactory rng_;
  CloudProvider provider_;
  RecordingOwner owner_{sim_};
  LeaseOwnerId me_ = provider_.add_owner(&owner_);
};

TEST_F(ProviderTest, OnDemandArrivesAfterAllocationLatency) {
  const InstanceId iid = on_demand(/*tag=*/7);
  sim_.run_until(kHour);
  ASSERT_EQ(owner_.ready.size(), 1u);
  EXPECT_EQ(owner_.ready[0].instance, iid);
  EXPECT_EQ(owner_.ready[0].tag, 7);
  EXPECT_EQ(owner_.ready[0].at, 90 * kSecond);
}

TEST_F(ProviderTest, SpotGrantedWhenPriceBelowBid) {
  const InstanceId iid = spot(0.06);
  sim_.run_until(kHour);
  ASSERT_EQ(owner_.ready.size(), 1u);
  EXPECT_EQ(owner_.ready[0].instance, iid);
  EXPECT_TRUE(owner_.failed.empty());
  const auto& inst = provider_.instance(iid);
  EXPECT_EQ(inst.state, InstanceState::kRunning);
  EXPECT_EQ(inst.launch, 240 * kSecond);
}

TEST_F(ProviderTest, SpotRejectedWhenPriceAboveBidAtGrant) {
  // Request just before the spike; allocation completes inside the spike.
  sim_.at(2 * kHour - kMinute, [&] { spot(0.06, /*tag=*/3); });
  sim_.run_until(4 * kHour);
  EXPECT_TRUE(owner_.ready.empty());
  ASSERT_EQ(owner_.failed.size(), 1u);
  EXPECT_EQ(owner_.failed[0].tag, 3);
  EXPECT_EQ(owner_.failed[0].reason, AllocFailure::kPriceAboveBid);
}

TEST_F(ProviderTest, RevocationWarningThenGraceThenTermination) {
  const InstanceId iid = spot(0.06);
  sim_.run_until(kHour);
  provider_.arm_revocation(iid, /*tag=*/5);
  sim_.run_until(5 * kHour);
  ASSERT_EQ(owner_.warnings.size(), 1u);
  EXPECT_EQ(owner_.warnings[0].instance, iid);
  EXPECT_EQ(owner_.warnings[0].tag, 5);
  EXPECT_EQ(owner_.warnings[0].at, 2 * kHour);                      // spike instant
  EXPECT_EQ(owner_.warnings[0].t_term, 2 * kHour + 120 * kSecond);  // 2-minute grace
  EXPECT_EQ(provider_.instance(iid).state, InstanceState::kTerminated);
}

TEST_F(ProviderTest, RevokedPartialHourIsFree) {
  spot(0.06);
  sim_.run_until(5 * kHour);
  // Launched at 240 s, revoked at 2h+120s = 7320 s. Instance-hours tick at
  // 240s + k*3600s, so only [240, 3840) completed; the in-progress second
  // hour is free under provider revocation.
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  const auto& rec = provider_.ledger().records().front();
  EXPECT_EQ(rec.cause, TerminationCause::kProviderRevoked);
  EXPECT_DOUBLE_EQ(rec.cost, 0.02);
}

TEST_F(ProviderTest, CustomerTerminationBillsPartialHour) {
  const InstanceId iid = spot(0.06);
  sim_.run_until(kHour);  // running since 240s
  provider_.terminate(iid);
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  const auto& rec = provider_.ledger().records().front();
  EXPECT_EQ(rec.cause, TerminationCause::kCustomer);
  EXPECT_DOUBLE_EQ(rec.cost, 0.02);  // partial first hour billed at start price
}

TEST_F(ProviderTest, CustomerCanBeatTheGracePeriod) {
  const InstanceId iid = spot(0.06);
  sim_.run_until(kHour);
  provider_.arm_revocation(iid, 0);
  // Bail out immediately on warning.
  owner_.warning_hook = [&](InstanceId i) { provider_.terminate(i); };
  sim_.run_until(5 * kHour);
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  EXPECT_EQ(provider_.ledger().records().front().cause,
            TerminationCause::kCustomer);
}

TEST_F(ProviderTest, CancelPendingRequestPreventsGrant) {
  const InstanceId iid = on_demand();
  provider_.cancel_request(iid);
  sim_.run_until(kHour);
  EXPECT_TRUE(owner_.ready.empty());
  EXPECT_EQ(provider_.instance(iid).state, InstanceState::kTerminated);
}

TEST_F(ProviderTest, OnDemandNeverRevoked) {
  const InstanceId iid = on_demand();
  sim_.run_until(5 * kHour);  // through the spike
  EXPECT_EQ(provider_.instance(iid).state, InstanceState::kRunning);
}

// Named for the handler-installing call that arm_revocation replaced.
TEST_F(ProviderTest, SetRevocationHandlerOnOnDemandThrows) {
  const InstanceId iid = on_demand();
  sim_.run_until(kHour);
  EXPECT_THROW(provider_.arm_revocation(iid, 0), std::logic_error);
}

TEST_F(ProviderTest, FinalizeBillsRunningInstances) {
  on_demand();
  sim_.run_until(10 * kHour);
  provider_.finalize(10 * kHour);
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  // Launched at 90s; 10h - 90s spans 10 started instance-hours.
  EXPECT_DOUBLE_EQ(provider_.ledger().records().front().cost, 0.60);
}

TEST_F(ProviderTest, FinalizeCancelsPendingRequests) {
  on_demand();
  provider_.finalize(0);
  sim_.run_until(kHour);
  EXPECT_TRUE(owner_.ready.empty());
  EXPECT_TRUE(provider_.ledger().records().empty());
}

TEST_F(ProviderTest, UnknownMarketThrows) {
  const MarketId bogus{"nowhere-1z", InstanceSize::kSmall};
  EXPECT_THROW(provider_.request_on_demand(bogus, me_, 0), std::out_of_range);
  EXPECT_THROW((void)provider_.price(bogus), std::out_of_range);
}

TEST_F(ProviderTest, RequestWithoutARegisteredOwnerThrows) {
  EXPECT_THROW(provider_.request_on_demand(kSmallEast, kNoLeaseOwner, 0),
               std::invalid_argument);
  EXPECT_THROW(provider_.request_spot(kSmallEast, 0.06, me_ + 1, 0),
               std::invalid_argument);
  provider_.remove_owner(me_);
  EXPECT_THROW(spot(0.06), std::invalid_argument);
  EXPECT_THROW(provider_.add_owner(nullptr), std::invalid_argument);
}

TEST_F(ProviderTest, UnknownInstanceThrows) {
  EXPECT_THROW((void)provider_.instance(987654), std::out_of_range);
}

TEST_F(ProviderTest, RegionAndMarketEnumeration) {
  EXPECT_TRUE(provider_.has_market(kSmallEast));
  EXPECT_EQ(provider_.all_markets().size(), 1u);
  EXPECT_EQ(provider_.markets_in_region("us-east-1a").size(), 1u);
  EXPECT_TRUE(provider_.markets_in_region("eu-west-1a").empty());
  EXPECT_EQ(provider_.regions(), std::vector<std::string>{"us-east-1a"});
}

TEST_F(ProviderTest, DuplicateMarketRejected) {
  trace::PriceTrace t;
  t.append(0, 0.01);
  t.set_end(kHour);
  EXPECT_THROW(provider_.add_market(kSmallEast, std::move(t), 0.06),
               std::logic_error);
}

// --- the instance-id contract -------------------------------------------
// Ids are dense from 1 in request order, and every id ever issued keeps
// answering instance(id) for the life of the provider.

TEST_F(ProviderTest, InstanceIdsAreDenseFromOne) {
  for (InstanceId expected = 1; expected <= 5; ++expected) {
    const InstanceId iid = expected % 2 == 0 ? on_demand() : spot(0.06);
    EXPECT_EQ(iid, expected);
  }
}

TEST_F(ProviderTest, EveryIssuedIdAnswersAndEndedOnesReadTerminated) {
  // Cancelled before its grant.
  const InstanceId cancelled = on_demand();
  provider_.cancel_request(cancelled);
  // Ended by the customer.
  const InstanceId ended = on_demand();
  // Revoked by the provider at the 2 h spike.
  const InstanceId revoked = spot(0.06);
  // Price-rejected: requested just before the spike, granted inside it.
  InstanceId rejected = kInvalidInstance;
  sim_.at(2 * kHour - kMinute, [&] { rejected = spot(0.06); });
  sim_.at(kHour, [&] { provider_.terminate(ended); });
  sim_.run_until(5 * kHour);

  for (const InstanceId iid : {cancelled, ended, revoked, rejected}) {
    ASSERT_NE(iid, kInvalidInstance);
    EXPECT_EQ(provider_.instance(iid).id, iid);
    EXPECT_EQ(provider_.instance(iid).state, InstanceState::kTerminated) << iid;
  }
  EXPECT_EQ(provider_.ledger().records().size(), 2u);  // ended + revoked
}

TEST_F(ProviderTest, IdZeroAndUnissuedIdsThrow) {
  const InstanceId last = on_demand();
  EXPECT_THROW((void)provider_.instance(kInvalidInstance), std::out_of_range);
  EXPECT_THROW((void)provider_.instance(last + 1), std::out_of_range);
  EXPECT_NO_THROW((void)provider_.instance(last));
}

TEST(Provider, CapacityFailedRequestReadsTerminated) {
  sim::Simulation s;
  sim::RngFactory f(7);
  faults::FaultPlan plan;
  plan.at_opportunity(faults::FaultKind::kAllocInsufficientCapacity, 1);
  faults::FaultInjector injector(s, f, plan);
  s.set_fault_injector(&injector);
  CloudProvider p(s, f);
  trace::PriceTrace t;
  t.append(0, 0.02);
  t.set_end(48 * kHour);
  p.add_market(kSmallEast, std::move(t), 0.06);
  p.start();

  RecordingOwner owner(s);
  const InstanceId iid = p.request_on_demand(kSmallEast, p.add_owner(&owner), 0);
  s.run_until(kHour);
  ASSERT_EQ(owner.failed.size(), 1u);
  EXPECT_EQ(owner.failed[0].instance, iid);
  EXPECT_EQ(owner.failed[0].reason, AllocFailure::kInsufficientCapacity);
  EXPECT_EQ(p.instance(iid).state, InstanceState::kTerminated);
  EXPECT_TRUE(p.ledger().records().empty());
}

TEST_F(ProviderTest, FinalizeAppendsRecordsInAscendingIdOrder) {
  std::vector<InstanceId> ids;
  for (int i = 0; i < 40; ++i) ids.push_back(on_demand());
  sim_.run_until(kHour);
  // End every third lease early, newest first, so the ledger's head is in
  // descending id order and only finalize's own order remains to check.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    if (*it % 3 == 0) provider_.terminate(*it);
  }
  const std::size_t early = provider_.ledger().records().size();
  provider_.finalize(2 * kHour);
  const auto& records = provider_.ledger().records();
  ASSERT_EQ(records.size(), ids.size());
  for (std::size_t i = early + 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].instance_id, records[i].instance_id);
  }
}

// --- market interning ----------------------------------------------------
// Markets are numbered 0, 1, ... in the order they were added, push-fed
// ones included; every index overload agrees with its MarketId twin.

TEST(Provider, MarketIndicesFollowAddOrderAcrossFeedKinds) {
  sim::Simulation s;
  sim::RngFactory f(1);
  CloudProvider p(s, f);
  const std::vector<MarketId> ids = {
      {"us-east-1a", InstanceSize::kSmall},
      {"live-1a", InstanceSize::kLarge},
      {"us-west-1a", InstanceSize::kMedium},
      {"live-1b", InstanceSize::kSmall},
  };
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double od = 0.06 * static_cast<double>(i + 1);
    if (ids[i].region.starts_with("live")) {
      p.add_live_market(ids[i], od);
    } else {
      trace::PriceTrace t;
      t.append(0, 0.01 * static_cast<double>(i + 1));
      t.set_end(kHour);
      p.add_market(ids[i], std::move(t), od);
    }
  }
  p.start();
  p.market(ids[1]).prime(0.2);
  p.market(ids[3]).prime(0.4);

  EXPECT_EQ(p.all_markets(), ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto idx = static_cast<MarketIndex>(i);
    EXPECT_EQ(p.index(ids[i]), idx);
    EXPECT_EQ(p.market(idx).index(), idx);
    EXPECT_EQ(&p.market(idx), &p.market(ids[i]));
    EXPECT_EQ(p.market(idx).id(), ids[i]);
    EXPECT_EQ(p.name(idx), ids[i].str());
    EXPECT_EQ(p.price(idx), p.price(ids[i]));
    EXPECT_EQ(p.od_price(idx), p.od_price(ids[i]));
    EXPECT_EQ(p.allocation_latency(idx).spot_mean_s,
              p.allocation_latency(ids[i].region).spot_mean_s);
  }
}

TEST_F(ProviderTest, InstancesCarryTheirMarketIndex) {
  const InstanceId by_id = on_demand();
  const InstanceId by_index =
      provider_.request_spot(provider_.index(kSmallEast), 0.06, me_, 0);
  EXPECT_EQ(provider_.instance(by_id).market, provider_.index(kSmallEast));
  EXPECT_EQ(provider_.instance(by_index).market, provider_.index(kSmallEast));
  EXPECT_EQ(by_index, by_id + 1);
}

TEST_F(ProviderTest, UnknownMarketIdThrowsNamingTheMarket) {
  const MarketId bogus{"nowhere-1z", InstanceSize::kSmall};
  for (const auto& lookup : std::vector<std::function<void()>>{
           [&] { (void)provider_.index(bogus); },
           [&] { (void)provider_.market(bogus); },
           [&] { (void)provider_.od_price(bogus); },
           [&] { (void)provider_.request_spot(bogus, 0.1, me_, 0); }}) {
    try {
      lookup();
      ADD_FAILURE() << "no throw";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find(bogus.str()), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW((void)provider_.market(MarketIndex{1}), std::out_of_range);
  EXPECT_THROW((void)provider_.name(MarketIndex{7}), std::out_of_range);
}

TEST(Provider, NegativeGraceRejected) {
  sim::Simulation s;
  sim::RngFactory f(1);
  EXPECT_THROW(CloudProvider(s, f, -1), std::invalid_argument);
}

TEST(Provider, GracePeriodDefaultsTo120s) {
  sim::Simulation s;
  sim::RngFactory f(1);
  CloudProvider p(s, f);
  EXPECT_EQ(p.grace_period(), 120 * kSecond);
}

}  // namespace
}  // namespace spothost::cloud
