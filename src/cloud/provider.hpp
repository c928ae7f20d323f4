// The infrastructure cloud: markets, instance allocation, spot revocation
// with the two-minute grace warning, and billing.
//
// Semantics reproduced from Sec. 2.1:
//  * a spot request names a bid; it is granted only if the price at grant
//    time is at or below the bid (allocation itself takes minutes — Table 1);
//  * when the spot price rises above the bid, the provider issues a warning
//    and forcibly terminates the instance `grace` later (default 120 s);
//  * billing per cloud/billing.hpp.
//
// The lease path is data, not closures. A customer registers a LeaseOwner
// once (add_owner) and names it, with a one-byte tag, in every request:
// the provider stores the owner id and the tag in the instance's record and
// hands both back in on_ready / on_failed / on_revocation, so the owner
// dispatches on the tag instead of capturing per-request state. The tag
// means whatever the owner wants (sched::LeaseFlow names the scheduler's
// request flows); the provider only copies it. A removed owner is told
// nothing more, whatever is still pending for it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/market.hpp"
#include "simcore/clock.hpp"
#include "simcore/rng.hpp"

namespace spothost::cloud {

using InstanceId = std::uint64_t;
inline constexpr InstanceId kInvalidInstance = 0;

enum class InstanceState : std::uint8_t { kPending, kRunning, kWarned, kTerminated };

/// Why a server request failed at grant time.
enum class AllocFailure : std::uint8_t {
  kPriceAboveBid,        ///< spot price exceeded the bid when allocation completed
  kInsufficientCapacity, ///< injected capacity error (faults::FaultInjector)
};

/// Mean/CV of allocation latency per region, calibrated to Table 1.
struct AllocationLatency {
  double on_demand_mean_s = 94.85;
  double on_demand_cv = 0.25;
  double spot_mean_s = 281.47;
  double spot_cv = 0.30;
};

struct Instance {
  InstanceId id = kInvalidInstance;
  MarketIndex market = 0;  ///< CloudProvider::name(market) is its MarketId::str()
  BillingMode mode = BillingMode::kOnDemand;
  InstanceState state = InstanceState::kPending;
  double bid = 0.0;  ///< spot only
  sim::SimTime requested_at = 0;
  sim::SimTime launch = 0;            ///< valid once running
  sim::SimTime termination_time = 0;  ///< valid once warned
  std::uint64_t owner = kNoOwner;     ///< see BillingRecord::owner
};

/// The owner's label for a request: which of its flows asked. Copied into
/// the instance's record and handed back with every notification.
using LeaseTag = std::uint8_t;

/// Who hears about a lease. Notifications are synchronous, inside the
/// provider event that causes them, and may issue requests or terminate
/// instances reentrantly.
class LeaseOwner {
 public:
  /// The request `instance` was granted: it is running.
  virtual void on_ready(InstanceId instance, LeaseTag tag) = 0;
  /// The request `instance` failed at grant time; it reads kTerminated.
  virtual void on_failed(InstanceId instance, LeaseTag tag, AllocFailure reason) = 0;
  /// The armed spot instance `instance` will be revoked at `t_term`. `tag`
  /// is the one of the arm_revocation call in effect when the warning was
  /// issued.
  virtual void on_revocation(InstanceId instance, LeaseTag tag,
                             sim::SimTime t_term) = 0;

 protected:
  ~LeaseOwner() = default;
};

/// A registered LeaseOwner (CloudProvider::add_owner). Ids are dense from 1
/// and never reused.
using LeaseOwnerId = std::uint32_t;
inline constexpr LeaseOwnerId kNoLeaseOwner = 0;

class CloudProvider : private SpotMarket::PriceListener {
 public:
  CloudProvider(sim::Clock& clock, const sim::RngFactory& rng_factory,
                sim::SimTime grace_period = 120 * sim::kSecond);

  /// Registers a trace-fed market. Must be called before start(). Markets
  /// are numbered 0, 1, ... (their MarketIndex) in the order they are
  /// added, whichever of add_market / add_live_market adds them.
  void add_market(MarketId id, trace::PriceTrace price_trace, double od_price);

  /// Registers a push-fed (live) market: no trace — a live::FeedDriver
  /// primes and steps its price instead. Must be called before start();
  /// start() skips push-fed markets. Mixing trace-fed and push-fed markets
  /// in one provider is allowed.
  void add_live_market(MarketId id, double od_price);

  /// Overrides a region's allocation latency profile (defaults: Table 1).
  void set_allocation_latency(const std::string& region, AllocationLatency latency);
  [[nodiscard]] AllocationLatency allocation_latency(const std::string& region) const;
  /// The profile of `market`'s region.
  [[nodiscard]] AllocationLatency allocation_latency(MarketIndex market) const;

  /// Begins replaying all trace-fed market price feeds (push-fed markets
  /// are driven by their feed). Call once, before running.
  void start();

  // --- markets by MarketId (the string boundary: config, I/O, policies) ---
  [[nodiscard]] SpotMarket& market(const MarketId& id);
  [[nodiscard]] const SpotMarket& market(const MarketId& id) const;
  [[nodiscard]] bool has_market(const MarketId& id) const;
  /// The MarketIndex of `id`; throws std::out_of_range naming an unknown one.
  [[nodiscard]] MarketIndex index(const MarketId& id) const;
  [[nodiscard]] std::vector<MarketId> all_markets() const;
  [[nodiscard]] std::vector<MarketId> markets_in_region(const std::string& region) const;
  [[nodiscard]] std::vector<std::string> regions() const;

  [[nodiscard]] double price(const MarketId& id) const { return market(id).price(); }
  [[nodiscard]] double od_price(const MarketId& id) const {
    return market(id).on_demand_price();
  }

  // --- markets by MarketIndex (the hot path) ------------------------------
  // Each throws std::out_of_range for an index no market was given.
  [[nodiscard]] SpotMarket& market(MarketIndex idx) { return *slot(idx).market; }
  [[nodiscard]] const SpotMarket& market(MarketIndex idx) const {
    return *slot(idx).market;
  }
  [[nodiscard]] double price(MarketIndex idx) const { return market(idx).price(); }
  [[nodiscard]] double od_price(MarketIndex idx) const {
    return market(idx).on_demand_price();
  }
  /// market(idx).id().str(), computed once when the market was added.
  [[nodiscard]] const std::string& name(MarketIndex idx) const { return slot(idx).name; }

  // --- lease owners ------------------------------------------------------
  /// Registers `owner` (not owned; non-null) for lease notifications.
  LeaseOwnerId add_owner(LeaseOwner* owner);
  /// Deregisters: `id` is told nothing more — no grant, failure or warning,
  /// including those already scheduled. Its leases run on and are billed.
  void remove_owner(LeaseOwnerId id);

  // --- leases --------------------------------------------------------------
  // Each request returns the new instance's id synchronously; the grant (or
  // its failure) reaches `owner` with `tag` after the allocation latency.
  // `owner` must be a registered owner; throws std::invalid_argument if not.

  /// Requests an on-demand server. It fails only on an injected capacity
  /// error.
  InstanceId request_on_demand(const MarketId& id, LeaseOwnerId owner, LeaseTag tag);
  InstanceId request_on_demand(MarketIndex market, LeaseOwnerId owner, LeaseTag tag);

  /// Requests a spot server at `bid`. It fails if the price exceeds the bid
  /// when allocation completes, or on an injected capacity error.
  InstanceId request_spot(const MarketId& id, double bid, LeaseOwnerId owner,
                          LeaseTag tag);
  InstanceId request_spot(MarketIndex market, double bid, LeaseOwnerId owner,
                          LeaseTag tag);

  /// Cancels a still-pending request. No-op if it already completed.
  void cancel_request(InstanceId id);

  /// Tags `id` with an opaque owner for cost attribution; the tag is copied
  /// into the BillingRecord when the lease completes. Call right after the
  /// request (requests return the id synchronously), or any time before
  /// termination. Re-tagging overwrites.
  void set_instance_owner(InstanceId id, std::uint64_t owner);

  /// Arms the revocation warning of spot instance `id`: its owner's
  /// on_revocation receives it with `tag`. Re-arming replaces the tag; an
  /// instance never armed is warned and revoked all the same, and only the
  /// owner hears nothing. Arming after the lease ended is a no-op. Throws
  /// std::logic_error for an on-demand instance.
  void arm_revocation(InstanceId id, LeaseTag tag);

  /// Customer-initiated termination (bills the final partial hour).
  void terminate(InstanceId id);

  /// Every id ever issued answers, for the life of the provider (ended,
  /// cancelled and failed requests read kTerminated). Throws
  /// std::out_of_range for kInvalidInstance and ids never issued.
  [[nodiscard]] const Instance& instance(InstanceId id) const;
  [[nodiscard]] sim::SimTime grace_period() const noexcept { return grace_; }

  /// Bills all still-running/pending instances as customer-terminated at
  /// `at`, appending their records in ascending id order. Call once when the
  /// experiment horizon is reached.
  void finalize(sim::SimTime at);

  [[nodiscard]] const BillingLedger& ledger() const noexcept { return ledger_; }

 private:
  /// The lease state of one issued id: the public Instance plus what the
  /// provider needs to call its owner back.
  struct Record {
    Instance inst;
    sim::EventId grant = sim::kInvalidEventId;  ///< pending grant event
    LeaseOwnerId owner = kNoLeaseOwner;
    /// Position of the id in its bid level (a running spot instance only).
    std::uint32_t level_pos = 0;
    LeaseTag tag = 0;             ///< the request's tag
    LeaseTag revocation_tag = 0;  ///< the last arm_revocation's tag
    bool armed = false;           ///< arm_revocation was called
    bool delayed = false;         ///< an injected allocation timeout already fired
  };

  /// Running spot instances of one market bidding one price.
  struct BidLevel {
    double bid = 0.0;
    /// The level's ids in no order; ids[k] is `first` for k == 0 and
    /// rest[k - 1] after, so a one-id level — every level, under
    /// distinct per-lease bids — allocates nothing.
    InstanceId first = kInvalidInstance;
    std::vector<InstanceId> rest;

    [[nodiscard]] std::size_t size() const noexcept { return rest.size() + 1; }
    [[nodiscard]] InstanceId& at(std::size_t k) noexcept {
      return k == 0 ? first : rest[k - 1];
    }
  };
  /// The bid index of one market: its running spot instances as levels in
  /// ascending bid, so a step to price p visits only the levels bidding
  /// below p — never the whole fleet. A grant appends its id to its level
  /// and a removal swap-removes it, both O(1) once the level is found; a
  /// fleet with one bid per market keeps one level per market. Revocation
  /// order is fixed by sorting the affected ids.
  using RunningSpot = std::vector<BidLevel>;

  struct MarketSlot {
    std::unique_ptr<SpotMarket> market;
    std::string name;         ///< MarketId::str()
    std::uint32_t region = 0; ///< index into regions_
    RunningSpot running_spot;
  };
  struct Region {
    std::string name;
    std::optional<AllocationLatency> latency;  ///< unset = Table 1 defaults
    std::unique_ptr<sim::RngStream> rng;       ///< created on first request
  };

  /// Records per slab chunk: a chunk is allocated once per this many
  /// requests, and records never move.
  static constexpr std::size_t kChunkRecords = 256;

  void adopt_market(std::unique_ptr<SpotMarket> market_ptr);
  [[nodiscard]] const MarketSlot& slot(MarketIndex idx) const;
  [[nodiscard]] MarketSlot& slot(MarketIndex idx);
  [[nodiscard]] std::uint32_t region_index(const std::string& region);
  /// Throws std::invalid_argument unless `owner` is registered.
  void require_owner(LeaseOwnerId owner) const;
  InstanceId issue(MarketIndex market, BillingMode mode, double bid, LeaseOwnerId owner,
                   LeaseTag tag);
  /// SpotMarket::PriceListener — one virtual hop per price step.
  void on_price(const SpotMarket& market, double new_price) override {
    on_price_change(market.index(), new_price);
  }
  void on_price_change(MarketIndex market, double new_price);
  void complete_grant(InstanceId id);
  void complete_lease(Record& rec, TerminationCause cause, sim::SimTime end);
  /// Files a newly running spot instance in its market's bid index.
  void index_bid(Record& rec);
  /// Removes a running spot instance from its market's bid index.
  void unindex_bid(Record& rec);
  /// The owner a record names (always registered), or nullptr once removed.
  [[nodiscard]] LeaseOwner* lease_owner(LeaseOwnerId id) const noexcept {
    return owners_[id - 1];
  }
  [[nodiscard]] bool issued(InstanceId id) const noexcept {
    return id != kInvalidInstance && id <= issued_;
  }
  /// The record of an issued id, unchecked.
  [[nodiscard]] Record& at(InstanceId id) noexcept {
    const auto i = static_cast<std::size_t>(id - 1);
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  [[nodiscard]] const Record& at(InstanceId id) const noexcept {
    return const_cast<CloudProvider&>(*this).at(id);
  }
  /// The record of an issued id; throws std::out_of_range for any other.
  Record& record(InstanceId id);

  sim::Clock& clock_;
  const sim::RngFactory& rng_factory_;
  sim::SimTime grace_;
  bool started_ = false;

  std::vector<MarketSlot> markets_;  ///< by MarketIndex
  std::unordered_map<MarketId, MarketIndex, MarketIdHash> index_;
  std::vector<Region> regions_;
  std::vector<LeaseOwner*> owners_;  ///< by LeaseOwnerId - 1; nullptr = removed

  /// The instance slab: id i lives at record i - 1 of the chunked table, so
  /// references stay valid while requests made from callbacks append to it.
  std::vector<std::unique_ptr<Record[]>> chunks_;
  InstanceId issued_ = 0;  ///< ids issued so far (the last id)
  /// Revocation batch reused across price steps; a reentrant step finds it
  /// taken (moved out) and allocates its own.
  std::vector<InstanceId> warn_spare_;
  BillingLedger ledger_;
};

}  // namespace spothost::cloud
