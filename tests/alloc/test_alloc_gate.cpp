// Allocation gate: the untraced hot path allocates nothing once warm, and a
// service's fixed footprint stays under a committed ceiling.
//
// This binary replaces the global operator new with a counting one, so it
// is kept apart from the other suites. Each hot-path test warms its
// scenario up (buffers grow to their steady-state sizes), then runs more of
// the same work between two reads of the counter and requires the
// difference to be zero. The footprint test counts the bytes a fleet's
// construction and start request. Allocation counts do not depend on the
// machine, so the gate is as stable in CI as a golden hash.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "cloud/provider.hpp"
#include "sched/baselines.hpp"
#include "sched/config.hpp"
#include "sched/fleet.hpp"
#include "sched/market_watcher.hpp"
#include "sched/scheduler.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "workload/service.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

// Out of line, so the compiler cannot pair an inlined operator new with
// this free() and warn about a new/free mismatch.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace spothost {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sched::MarketWatcher;
using Interest = MarketWatcher::Interest;

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

struct CountingListener final : MarketWatcher::TriggerListener {
  void on_trigger(const MarketWatcher::Trigger&) override { ++triggers; }
  std::uint64_t triggers = 0;
};

struct IdleOwner final : cloud::LeaseOwner {
  void on_ready(cloud::InstanceId, cloud::LeaseTag) override {}
  void on_failed(cloud::InstanceId, cloud::LeaseTag, cloud::AllocFailure) override {}
  void on_revocation(cloud::InstanceId, cloud::LeaseTag, sim::SimTime) override {}
};

constexpr sim::SimTime kStep = 5 * sim::kMinute;
constexpr int kSteps = 400;
const MarketId kMarket{"us-east-1a", InstanceSize::kSmall};
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One trace-fed market stepping every 5 minutes between two prices, with
/// running spot instances that bid above both (no step moves one), and a
/// watcher whose listeners hold every kind of interest. The engine is the
/// default one, so the gate covers what every caller that names no queue
/// runs on.
class HotPath : public ::testing::Test {
 protected:
  HotPath() : rng_(20150615), provider_(sim_, rng_) {
    trace::PriceTrace t;
    for (int i = 0; i <= kSteps; ++i) t.append(i * kStep, i % 2 == 0 ? 0.02 : 0.03);
    t.set_end((kSteps + 1) * kStep);
    provider_.add_market(kMarket, std::move(t), 0.06);
    provider_.start();
    const cloud::MarketIndex m = provider_.index(kMarket);
    const cloud::LeaseOwnerId owner = provider_.add_owner(&owner_);
    for (int i = 0; i < 8; ++i) {
      const auto iid = provider_.request_spot(m, 1.0, owner, 0);
      provider_.set_instance_owner(iid, static_cast<std::uint64_t>(i));
    }
    for (auto& l : listeners_) ids_.push_back(watcher_.add_listener(&l));
    for (const auto id : ids_) watcher_.watch(id, {kMarket});
    watcher_.set_interest(ids_[1], Interest::above(m, -kInf));
    watcher_.set_interest(ids_[2], Interest::above(m, 0.025));
    watcher_.set_interest(ids_[3], Interest::above(m, 1.0));
    watcher_.set_interest(ids_[4], Interest::none());
    watcher_.set_interest(ids_[5], Interest::above(m, 0.025));
    watcher_.set_interest(ids_[6], Interest::above(m, -kInf));
    watcher_.set_interest(ids_[7], Interest::above(m, 1.0));
    // ids_[0] stays kAlways.
  }

  sim::Simulation sim_;
  sim::RngFactory rng_;
  cloud::CloudProvider provider_;
  IdleOwner owner_;
  MarketWatcher watcher_{sim_, provider_};
  std::vector<CountingListener> listeners_ = std::vector<CountingListener>(8);
  std::vector<MarketWatcher::ListenerId> ids_;
};

TEST_F(HotPath, UntracedPriceStepMovingNoInstanceAllocatesNothing) {
  ASSERT_EQ(sim_.tracer(), nullptr);
  sim_.run_until(40 * kStep);  // grants land; buffers reach steady state
  for (cloud::InstanceId iid = 1; iid <= 8; ++iid) {
    ASSERT_EQ(provider_.instance(iid).state, cloud::InstanceState::kRunning);
  }
  const auto steps_before = watcher_.stats().price_steps;
  const auto deliveries_before = watcher_.stats().deliveries;

  const std::uint64_t before = allocations();
  sim_.run_until(kSteps * kStep);
  const std::uint64_t allocated = allocations() - before;

  const auto steps = watcher_.stats().price_steps - steps_before;
  EXPECT_GE(steps, 300u);  // not vacuous: the steps ran and were delivered
  EXPECT_GT(watcher_.stats().deliveries - deliveries_before, 3 * steps);
  EXPECT_TRUE(provider_.ledger().records().empty());  // no instance moved
  EXPECT_EQ(allocated, 0u) << "over " << steps << " price steps";
}

// A proactive service on one market whose price leaves the on-demand price
// behind for two hours in every four: each cycle is a planned migration to
// an on-demand server (request, grant, transfer, switchover, release of the
// spot source) and a reverse one back to spot at the next hour check. The
// run has its own world; the fixture's stays idle.
TEST_F(HotPath, WarmPlannedMigrationAllocations) {
  constexpr sim::SimTime kCycle = 4 * sim::kHour;
  constexpr int kWarmCycles = 100;
  constexpr int kCycles = 1000;
  // Committed count for the kCycles cycles measured: 20 = five growths of
  // the ledger, five of the outage list, eight 256-record slab chunks for
  // the 2,000 instances and two growths of the chunk table. With a bid
  // std::set, an instance deque and interest buckets freed when emptied,
  // the same cycles allocated 3,297 times: a set node per spot grant, a
  // deque block per seven records and a list per re-created bucket.
  constexpr std::uint64_t kAllocations = 20;

  sim::Simulation sim;
  sim::RngFactory rng(20150615);
  cloud::CloudProvider provider(sim, rng);
  trace::PriceTrace t;
  for (int c = 0; c < kWarmCycles + kCycles + 2; ++c) {
    t.append(c * kCycle, 0.02);
    t.append(c * kCycle + kCycle / 2, 0.10);  // above p_on = 0.06, below the bid
  }
  t.set_end((kWarmCycles + kCycles + 2) * kCycle);
  provider.add_market(kMarket, std::move(t), 0.06);
  provider.start();
  workload::AlwaysOnService service("svc", virt::default_spec_for_memory(1.7, 8.0));
  auto cfg = sched::proactive_config(kMarket);
  cfg.planned_timing = sched::PlannedTiming::kImmediate;
  sched::CloudScheduler scheduler(sim, provider, service, cfg, rng.stream("timing"));
  scheduler.start();

  sim.run_until(kWarmCycles * kCycle);
  const auto planned_before = scheduler.stats().planned;
  const auto reverse_before = scheduler.stats().reverse;
  const std::uint64_t before = allocations();
  sim.run_until((kWarmCycles + kCycles) * kCycle);
  const std::uint64_t allocated = allocations() - before;

  EXPECT_EQ(scheduler.stats().planned - planned_before, kCycles);
  EXPECT_EQ(scheduler.stats().reverse - reverse_before, kCycles);
  EXPECT_EQ(allocated, kAllocations) << "over " << kCycles << " planned migrations";
}

TEST_F(HotPath, SetInterestRefileAllocatesNothing) {
  // Listeners 2 and 5 share the 0.025 edge, 1 and 6 the -inf edge and 7 the
  // 1.0 edge, so listener 3's refiles move it between buckets that stay
  // alive: the steady state of a fleet, where many services share each
  // edge. (A refile that empties a bucket keeps its list for the next
  // bucket; the warm planned migration below refiles one listener between
  // edges nobody else holds.)
  const cloud::MarketIndex m = provider_.index(kMarket);
  const Interest cycle[] = {Interest::above(m, 0.025), Interest::above(m, -kInf),
                            Interest::always(), Interest::none(),
                            Interest::above(m, 1.0)};
  for (int round = 0; round < 3; ++round) {
    for (const Interest& in : cycle) watcher_.set_interest(ids_[3], in);
  }

  const std::uint64_t before = allocations();
  for (int round = 0; round < 100; ++round) {
    for (const Interest& in : cycle) watcher_.set_interest(ids_[3], in);
  }
  const std::uint64_t allocated = allocations() - before;

  EXPECT_EQ(watcher_.interest(ids_[3]), Interest::above(m, 1.0));
  EXPECT_EQ(allocated, 0u) << "over 500 refiles";
}

// --- per-service footprint -------------------------------------------------
// Every service owns a scheduler with its own timing stream, so the stream
// and the scheduler's counters are multiplied by the fleet size: at 100k
// services, 1 kB per service is 100 MB.

static_assert(sizeof(sim::RngStream) <= 64,
              "a timing stream is per service; keep the engine compact");

TEST(Footprint, FleetMonthServiceBytesStayUnderCeiling) {
  // The fleet_month shape: proactive services, homes round-robin over the
  // small markets of three regions, one month.
  constexpr int kServices = 1000;
  // Committed ceiling. A fleet at this size allocated 2,690 bytes a
  // service when it was set (1,328 of them the scheduler); a full
  // std::mt19937_64 per stream would add 2,464.
  constexpr std::uint64_t kMaxBytesPerService = 3000;

  sched::Scenario scenario;
  scenario.seed = 20150615;
  scenario.regions = {"us-east-1a", "us-east-1b", "us-west-1a"};
  sched::World world(scenario);
  sched::FleetConfig config;
  config.num_services = kServices;
  config.service_template = sched::proactive_config(kMarket);
  config.home_markets = {{"us-east-1a", InstanceSize::kSmall},
                         {"us-east-1b", InstanceSize::kSmall},
                         {"us-west-1a", InstanceSize::kSmall}};

  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  sched::FleetScheduler fleet(world.clock(), world.provider(), config, world.rng());
  fleet.start();
  const std::uint64_t per_service =
      (g_bytes.load(std::memory_order_relaxed) - before) / kServices;

  ASSERT_EQ(fleet.size(), kServices);
  EXPECT_LE(per_service, kMaxBytesPerService) << "heap bytes per service";
}

}  // namespace
}  // namespace spothost
