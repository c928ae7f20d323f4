// The infrastructure cloud: markets, instance allocation, spot revocation
// with the two-minute grace warning, and billing.
//
// Semantics reproduced from Sec. 2.1:
//  * a spot request names a bid; it is granted only if the price at grant
//    time is at or below the bid (allocation itself takes minutes — Table 1);
//  * when the spot price rises above the bid, the provider issues a warning
//    and forcibly terminates the instance `grace` later (default 120 s);
//  * billing per cloud/billing.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
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

enum class InstanceState { kPending, kRunning, kWarned, kTerminated };

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
  double bid = 0.0;  ///< spot only
  InstanceState state = InstanceState::kPending;
  sim::SimTime requested_at = 0;
  sim::SimTime launch = 0;            ///< valid once running
  sim::SimTime termination_time = 0;  ///< valid once warned
  std::uint64_t owner = kNoOwner;     ///< see BillingRecord::owner
};

class CloudProvider : private SpotMarket::PriceListener {
 public:
  using ReadyCallback = std::function<void(InstanceId)>;
  using FailCallback = std::function<void(AllocFailure)>;
  /// Revocation warning: fired when the price crosses the bid; the instance
  /// is forcibly terminated at `termination_time` (= warning time + grace).
  using RevocationHandler = std::function<void(InstanceId, sim::SimTime termination_time)>;

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

  /// Requests an on-demand server; `on_ready` fires after allocation latency.
  /// `on_fail` (optional) receives injected capacity errors; requests without
  /// one are never capacity-faulted (the failure would be unobservable).
  InstanceId request_on_demand(const MarketId& id, ReadyCallback on_ready,
                               FailCallback on_fail = {});
  InstanceId request_on_demand(MarketIndex market, ReadyCallback on_ready,
                               FailCallback on_fail = {});

  /// Requests a spot server at `bid`; `on_fail` fires with the reason if the
  /// price exceeds the bid when allocation completes, or when the fault
  /// injector raises an insufficient-capacity error at grant time.
  InstanceId request_spot(const MarketId& id, double bid, ReadyCallback on_ready,
                          FailCallback on_fail);
  InstanceId request_spot(MarketIndex market, double bid, ReadyCallback on_ready,
                          FailCallback on_fail);

  /// Cancels a still-pending request. No-op if it already completed.
  void cancel_request(InstanceId id);

  /// Tags `id` with an opaque owner for cost attribution; the tag is copied
  /// into the BillingRecord when the lease completes. Call right after the
  /// request (requests return the id synchronously), or any time before
  /// termination. Re-tagging overwrites.
  void set_instance_owner(InstanceId id, std::uint64_t owner);

  /// Installs the revocation-warning handler for a spot instance. A handler
  /// installed after the lease ended is dropped: nothing would call it.
  void set_revocation_handler(InstanceId id, RevocationHandler handler);

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
  static constexpr std::uint32_t kNoSide = UINT32_MAX;

  /// Running spot instances of one market as (bid, id), ordered by bid, so
  /// a step to price p visits only the instances bidding below p — never
  /// the whole fleet. Revocation order is fixed by sorting the affected ids.
  using RunningSpot = std::set<std::pair<double, InstanceId>>;

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
  /// The callbacks of one live instance: kept apart from the Instance so the
  /// slab of every instance ever issued stays small. A slot is taken at
  /// request time and recycled once the lease ends, the grant fails or the
  /// request is cancelled.
  struct Side {
    ReadyCallback on_ready;
    FailCallback on_fail;
    RevocationHandler on_revocation;
    sim::EventHandle grant;
    bool delayed = false;  ///< an injected allocation timeout already fired
  };
  struct Record {
    Instance inst;
    std::uint32_t side = kNoSide;
  };

  void adopt_market(std::unique_ptr<SpotMarket> market_ptr);
  [[nodiscard]] const MarketSlot& slot(MarketIndex idx) const;
  [[nodiscard]] MarketSlot& slot(MarketIndex idx);
  [[nodiscard]] std::uint32_t region_index(const std::string& region);
  InstanceId issue(MarketIndex market, BillingMode mode, double bid,
                   ReadyCallback on_ready, FailCallback on_fail);
  /// SpotMarket::PriceListener — one virtual hop per price step.
  void on_price(const SpotMarket& market, double new_price) override {
    on_price_change(market.index(), new_price);
  }
  void on_price_change(MarketIndex market, double new_price);
  void complete_grant(InstanceId id);
  void complete_lease(Record& rec, TerminationCause cause, sim::SimTime end);
  /// Recycles the record's side slot (if any) for the next request.
  void release_side(Record& rec);
  [[nodiscard]] bool issued(InstanceId id) const noexcept {
    return id != kInvalidInstance && id <= instances_.size();
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

  /// Instance id i lives at instances_[i - 1]; a deque, so references stay
  /// valid while requests made from callbacks append to it.
  std::deque<Record> instances_;
  std::vector<Side> sides_;
  std::vector<std::uint32_t> free_sides_;
  /// Revocation batch reused across price steps; a reentrant step finds it
  /// taken (moved out) and allocates its own.
  std::vector<InstanceId> warn_spare_;
  BillingLedger ledger_;
};

}  // namespace spothost::cloud
