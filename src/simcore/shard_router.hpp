// ShardRouter: the narrow sharding seam policy code programs against.
//
// The sharded engine (simcore/sharded_sim.hpp) partitions per-service work
// across K shard lanes that advance in parallel between market-event
// barriers. Components above simcore (schedulers, fleets) need exactly
// three things from it: how many shards exist, a per-shard sim::Clock to
// schedule lane-local events on, and a mailbox post to hand a batch of work
// to a shard at a barrier. ShardRouter is that contract — the sharded
// analogue of sim::Clock — so sched code can route work to shards without
// including the concrete engine header (scripts/check_layering.sh enforces
// this, exactly as it does for simulation.hpp).
//
// Threading/determinism contract (see sharded_sim.hpp for the full rules):
//
//  * shard_clock(k) may be used to schedule from the serial phase (setup or
//    a barrier) or from a callback already running on shard k; scheduling on
//    shard k from shard j's window context throws.
//  * post() is serial-phase only. The callback runs on shard k's thread at
//    the start of the next parallel window, at the simulation time of the
//    posting barrier, after every event of the posting timestamp and before
//    any later event. Mailboxes drain in post order — identical delivery
//    order for every shard count, including 1.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simcore/clock.hpp"

namespace spothost::sim {

class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  /// Number of shard lanes (>= 1).
  [[nodiscard]] virtual std::size_t shard_count() const noexcept = 0;

  /// The scheduling interface of shard `k` (0-based, < shard_count()).
  [[nodiscard]] virtual Clock& shard_clock(std::size_t shard) = 0;

  /// Appends `cb` to shard `k`'s mailbox (deferred delivery, see above).
  virtual void post(std::size_t shard, Callback cb) = 0;
};

/// Deterministic service-id -> shard partition, stable across runs,
/// platforms, and shard counts' common divisors. splitmix64's finalizer
/// avalanches the dense sequential ids real fleets use, so consecutive
/// services land on different shards instead of filling shard 0 first.
[[nodiscard]] constexpr std::size_t shard_of_key(std::uint64_t key,
                                                 std::size_t shards) noexcept {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  key ^= key >> 31;
  return shards <= 1 ? 0 : static_cast<std::size_t>(key % shards);
}

}  // namespace spothost::sim
