// Allocation gate: the untraced hot path allocates nothing once warm.
//
// This binary replaces the global operator new with a counting one, so it
// is kept apart from the other suites. Each test warms its scenario up
// (buffers grow to their steady-state sizes), then runs more of the same
// work between two reads of the counter and requires the difference to be
// zero. Allocation counts do not depend on the machine, so the gate is as
// stable in CI as a golden hash.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "cloud/provider.hpp"
#include "sched/market_watcher.hpp"
#include "simcore/simulation.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
    for (int i = 0; i < 8; ++i) {
      const auto iid = provider_.request_spot(
          m, 1.0, [](cloud::InstanceId) {}, [](cloud::AllocFailure) {});
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

TEST_F(HotPath, SetInterestRefileAllocatesNothing) {
  // Listeners 2 and 5 share the 0.025 edge, 1 and 6 the -inf edge and 7 the
  // 1.0 edge, so listener 3's refiles move it between buckets that stay
  // alive: the steady state of a fleet, where many services share each
  // edge. (A refile that empties a bucket frees it; re-creating it costs
  // one allocation.)
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

}  // namespace
}  // namespace spothost
