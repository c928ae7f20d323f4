// BidIndexDifferential: the provider's bid index (levels of equal bids,
// swap-remove within a level) warns exactly the ids, in exactly the order,
// that the per-market std::set<pair<bid, id>> it replaced warned.
//
// Each case drives one push-fed market through a seeded random
// interleaving of spot grants, customer terminations and price steps. The
// reference below mirrors every grant and termination into the set, and at
// every step computes the warned batch with the set's loop, verbatim; the
// provider's batch is what its lease owner hears, every instance being
// armed at grant.
#include "cloud/provider.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace spothost::cloud {
namespace {

using sim::kSecond;

const MarketId kPush{"push-1a", InstanceSize::kSmall};

enum class BidShape { kEqual, kDistinct, kMixed };

struct Harness final : LeaseOwner {
  void on_ready(InstanceId instance, LeaseTag) override { granted.push_back(instance); }
  void on_failed(InstanceId, LeaseTag, AllocFailure) override {}
  void on_revocation(InstanceId instance, LeaseTag, sim::SimTime) override {
    warned.push_back(instance);
  }
  std::vector<InstanceId> granted;
  std::vector<InstanceId> warned;
};

/// The index this replaced, kept verbatim: the running spot instances of
/// one market as (bid, id), and the batch a step to `new_price` warns.
struct ReferenceIndex {
  std::set<std::pair<double, InstanceId>> running_spot;
  std::map<InstanceId, double> bid_of;  ///< every granted instance's bid

  void grant(double bid, InstanceId iid) {
    running_spot.emplace(bid, iid);
    bid_of[iid] = bid;
  }

  std::vector<InstanceId> step(double new_price) {
    std::vector<InstanceId> to_warn;
    for (auto it = running_spot.begin();
         it != running_spot.end() && it->first < new_price; ++it) {
      to_warn.push_back(it->second);
    }
    std::sort(to_warn.begin(), to_warn.end());  // deterministic order
    for (const InstanceId iid : to_warn) {
      running_spot.erase({bid_of.at(iid), iid});
    }
    return to_warn;
  }
};

/// Runs `ops` random operations; returns the number of non-empty batches
/// compared (so a case can check it was not vacuous).
int run_case(BidShape shape, std::uint64_t seed, int ops) {
  sim::Simulation sim;
  sim::RngFactory factory(seed);
  sim::RngStream rng = factory.stream("bid-index");
  CloudProvider provider(sim, factory);
  provider.add_live_market(kPush, 0.06);
  AllocationLatency lat;
  lat.spot_mean_s = 60.0;
  lat.spot_cv = 0.0;
  provider.set_allocation_latency(kPush.region, lat);
  provider.start();
  SpotMarket& market = provider.market(kPush);
  market.prime(0.01);
  Harness owner;
  const LeaseOwnerId me = provider.add_owner(&owner);
  ReferenceIndex ref;

  static constexpr double kLevels[] = {0.02, 0.05, 0.05, 0.08};
  const auto bid_for = [&](int op) {
    switch (shape) {
      case BidShape::kEqual:
        return 0.05;
      case BidShape::kDistinct:
        return 0.01 + 0.09 * rng.uniform(0.0, 1.0) + 1e-9 * op;  // never repeats
      case BidShape::kMixed:
        if (rng.uniform(0.0, 1.0) < 0.5) {
          return kLevels[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        }
        return 0.01 + 0.09 * rng.uniform(0.0, 1.0);
    }
    return 0.05;
  };
  const auto price_below_every_bid = [&] {
    return 0.001 + 0.008 * rng.uniform(0.0, 1.0);
  };

  int batches = 0;
  for (int op = 0; op < ops; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.45) {
      // Grant: calm the market so the request is granted, then let the
      // allocation latency pass.
      const double bid = bid_for(op);
      if (market.price() > bid) market.push_price(price_below_every_bid());
      owner.warned.clear();
      const InstanceId iid = provider.request_spot(kPush, bid, me, 0);
      sim.run_until(sim.now() + 61 * kSecond);
      EXPECT_TRUE(owner.warned.empty());
      if (std::find(owner.granted.begin(), owner.granted.end(), iid) !=
          owner.granted.end()) {
        provider.arm_revocation(iid, 0);
        ref.grant(bid, iid);
      }
    } else if (dice < 0.7) {
      // Customer termination of a random running instance.
      if (ref.running_spot.empty()) continue;
      auto it = ref.running_spot.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(
                                              ref.running_spot.size()) - 1));
      const InstanceId iid = it->second;
      ref.running_spot.erase(it);
      provider.terminate(iid);
      EXPECT_EQ(provider.instance(iid).state, InstanceState::kTerminated);
    } else {
      // Price step to a fresh price somewhere across the bids.
      double p = 0.0;
      do {
        p = 0.001 + 0.11 * rng.uniform(0.0, 1.0);
      } while (p == market.price());
      if (rng.uniform(0.0, 1.0) < 0.2 && !ref.running_spot.empty()) {
        // A step exactly onto a bid warns nobody at that bid.
        p = ref.running_spot.begin()->first;
        if (p == market.price()) continue;
      }
      owner.warned.clear();
      const std::vector<InstanceId> expected = ref.step(p);
      market.push_price(p);
      EXPECT_EQ(owner.warned, expected) << "step " << op << " to " << p;
      if (!expected.empty()) ++batches;
    }
  }
  return batches;
}

TEST(BidIndexDifferential, EqualBids) {
  int batches = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    batches += run_case(BidShape::kEqual, seed, 300);
  }
  EXPECT_GT(batches, 100);
}

TEST(BidIndexDifferential, AllDistinctBids) {
  int batches = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    batches += run_case(BidShape::kDistinct, seed, 300);
  }
  EXPECT_GT(batches, 100);
}

TEST(BidIndexDifferential, MixedBids) {
  int batches = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    batches += run_case(BidShape::kMixed, seed, 300);
  }
  EXPECT_GT(batches, 100);
}

}  // namespace
}  // namespace spothost::cloud
