// Market identity and the price feed for one (region, size) spot market.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cloud/instance_types.hpp"
#include "simcore/clock.hpp"
#include "trace/price_trace.hpp"

namespace spothost::cloud {

/// A spot market is identified by (region, instance size) — "each server
/// configuration has its own spot market" (Sec. 2.1).
struct MarketId {
  std::string region;
  InstanceSize size = InstanceSize::kSmall;

  bool operator==(const MarketId&) const = default;
  [[nodiscard]] std::string str() const {
    return region + "/" + std::string(to_string(size));
  }
};

struct MarketIdHash {
  std::size_t operator()(const MarketId& m) const noexcept {
    return std::hash<std::string>{}(m.region) * 31u +
           static_cast<std::size_t>(m.size);
  }
};

/// One market, with observer callbacks on every price change. The
/// CloudProvider owns SpotMarkets and layers instance/revocation logic on
/// top. Two feeding modes share the class:
///
///   * trace mode (the simulation path) — constructed with a pre-loaded
///     PriceTrace; start() replays its change points as clock events.
///   * push mode (the live path) — constructed without a trace; a
///     live::FeedDriver primes the initial price and then stages/commits
///     updates as they arrive from a live::PriceFeed. Committed prices
///     accumulate into an internal PriceTrace so billing (spot_cost) reads
///     the same structure in both modes.
///
/// The push-mode stage/commit split exists for replay parity: staging makes
/// the *queried* price step at exactly the staged timestamp (matching trace
/// mode's right-continuous price_at), even when another event at the same
/// millisecond — scheduled earlier, so dispatched first — asks for the price
/// before the commit callback runs.
class SpotMarket {
 public:
  using PriceObserver = std::function<void(const SpotMarket&, double new_price)>;
  using SubscriptionId = std::uint64_t;

  /// The hot-path subscription surface: one virtual call per price step per
  /// subscriber, no std::function dispatch, no capture storage. The two
  /// per-market permanent subscribers (CloudProvider's revocation logic and
  /// the fleet's shared MarketWatcher) implement this; ad-hoc observers
  /// (tests, probes) can keep using the std::function overload.
  class PriceListener {
   public:
    virtual ~PriceListener() = default;
    /// Called on every committed price change, synchronously, in
    /// subscription order. `market.id()` identifies the market.
    virtual void on_price(const SpotMarket& market, double new_price) = 0;
  };

  /// Trace mode: replays `price_trace` (must be non-empty).
  SpotMarket(sim::Clock& clock, MarketId id, trace::PriceTrace price_trace,
             double on_demand_price_per_hour);

  /// Push mode: no trace; prices arrive via prime()/stage()/commit_staged().
  SpotMarket(sim::Clock& clock, MarketId id, double on_demand_price_per_hour);

  [[nodiscard]] const MarketId& id() const noexcept { return id_; }
  [[nodiscard]] double on_demand_price() const noexcept { return on_demand_price_; }

  /// True if this market is push-fed (no pre-loaded trace).
  [[nodiscard]] bool push_fed() const noexcept { return push_fed_; }

  /// Trace mode: the pre-loaded trace. Push mode: the prices committed so
  /// far (the live billing record). Its end() only advances on commit; use
  /// billable_trace() when about to integrate up to the present.
  [[nodiscard]] const trace::PriceTrace& price_trace() const noexcept { return trace_; }

  /// price_trace() with the validity window extended through `through`
  /// (push mode bills against prices that have held since the last commit).
  /// Trace mode returns the trace unchanged.
  [[nodiscard]] const trace::PriceTrace& billable_trace(sim::SimTime through);

  /// Current spot price (at clock now()). Push mode throws std::logic_error
  /// until prime() has supplied the first price.
  [[nodiscard]] double price() const;

  /// Registers a price-change observer; fires on every change event.
  SubscriptionId subscribe(PriceObserver observer);
  /// Interface flavour (not owned; must outlive the subscription). The hot
  /// dispatch path calls on_price directly — no type-erased invocation.
  SubscriptionId subscribe(PriceListener* listener);
  void unsubscribe(SubscriptionId id);
  /// Live observers (the provider's own revocation logic counts as one).
  [[nodiscard]] std::size_t observer_count() const noexcept {
    return observers_.size();
  }

  /// Trace mode: begins replaying price-change events into the clock. Call
  /// once. Push mode: a no-op (the feed driver drives the market instead) —
  /// lets CloudProvider::start() treat both modes uniformly.
  void start();

  // --- push mode (live::FeedDriver's surface) ----------------------------

  /// Sets the initial price without notifying observers — the counterpart
  /// of trace mode's point at t0, which is never dispatched as an event.
  /// Call exactly once, before any commit; throws if re-primed or in trace
  /// mode.
  void prime(double price);

  /// Declares the price that will commit at `at` (>= now). From `at`
  /// onwards price() answers with it even before commit_staged() runs —
  /// see the class comment. At most one update staged at a time.
  void stage(sim::SimTime at, double price);

  /// Commits the staged price at clock now() (>= the staged time): records
  /// it in the billing trace and, if it differs from the current price,
  /// dispatches observers.
  void commit_staged();

  /// stage(now) + commit_staged(): the immediate-delivery path for feed
  /// updates that are already due when ingested (live tailing).
  void push_price(double price);

 private:
  void schedule_next(sim::SimTime after_time);

  sim::Clock& clock_;
  MarketId id_;
  // Trace mode: the replayed trace. Push mode: committed prices so far.
  trace::PriceTrace trace_;
  // This market's read position in its trace. A SpotMarket lives inside one
  // single-threaded engine and its queries move forward with time, so one
  // per-instance cursor makes price()/schedule_next amortized O(1); mutable
  // because price() is logically const (the trace itself is never mutated —
  // cursor state is the reader's, see trace/price_trace.hpp).
  mutable trace::PriceCursor trace_cursor_;
  double on_demand_price_;
  void dispatch(double new_price);

  const bool push_fed_ = false;
  bool primed_ = false;
  bool staged_ = false;
  sim::SimTime staged_at_ = 0;
  double staged_price_ = 0.0;
  double live_price_ = 0.0;  ///< last committed (or primed) push-mode price

  // Ordered by subscription id so observer dispatch order is deterministic
  // (the provider's revocation logic subscribes first and must run first).
  // A subscription is either an interface pointer (hot path — provider,
  // watcher) or a type-erased function (tests, probes); exactly one is set.
  struct Subscription {
    PriceListener* listener = nullptr;
    PriceObserver fn;
  };
  std::map<SubscriptionId, Subscription> observers_;
  // Reused id snapshot for dispatch: observers may (un)subscribe reentrantly,
  // so each price step walks a stable list of ids — not live map iterators —
  // and re-looks each id up before calling. Snapshotting ids instead of the
  // std::function objects themselves keeps a price step allocation-free once
  // the buffer has grown to the steady-state observer count.
  std::vector<SubscriptionId> dispatch_ids_;
  SubscriptionId next_subscription_ = 1;
  bool started_ = false;
};

}  // namespace spothost::cloud
