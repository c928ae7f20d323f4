// Shared fleet market watcher — layer 1 ("when to move") of the scheduler
// decomposition.
//
// A CloudScheduler used to subscribe to every candidate market's price feed
// itself, so a fleet of N schedulers over M markets held N×M provider-side
// subscriptions and every price tick fanned out through N×M independent
// std::function hops. The MarketWatcher subscribes to each provider feed at
// most ONCE — fleet cost is O(M) subscriptions — and fans typed trigger
// notifications out to any number of registered listeners:
//
//  * kPriceChange  — a watched market's spot price ticked;
//  * kHourBoundary — a billing-hour check the listener asked to be woken
//    for (per-instance hours are listener state, so the watcher only owns
//    the delivery, not the schedule).
//
// Revocation warnings do not pass through here: the provider hands them to
// the instance's cloud::LeaseOwner directly.
//
// Fan-out is indexed by interest (paper Sec. 3: the proactive scheduler is
// edge-triggered, so most price steps are no-ops for most services). Each
// listener declares one price Interest — kNone, kAbove(market, edge) or
// kAlways — and the watcher files it in a per-market index: a bucket of the
// kAlways watchers plus one bucket per distinct kAbove edge, the buckets
// ordered by edge. A market has only a handful of distinct edges (one per
// on-demand threshold and capacity pair, plus -inf), so a step to price p in
// market m walks m's buckets while edge < p and collects their entries: its
// cost scales with the listeners the step can move, not with the listeners
// watching m. Within a bucket entries are unordered — a refile is an O(1)
// append or swap-remove, never a shift of the whole fleet — and each step
// sorts its (few) recipients back into watch order. Listeners that never
// declare stay kAlways, i.e. they see every step of every watched market.
//
// The provider feed arrives through SpotMarket::PriceListener and leaves
// through TriggerListener — no type-erased hop on the path. Markets are
// addressed by their cloud::MarketIndex, so neither a step nor a refile
// hashes a market name. Listeners live in a dense vector indexed by
// ListenerId (ids are never reused); removal tombstones the slot and
// unfiles it. A step's recipients are fixed when the step begins and
// delivered from a private batch, so listeners may (un)register, watch()
// and set_interest() reentrantly mid-dispatch: the change applies from the
// next step (a removed listener is skipped at once). Within one market,
// recipients fire in the order they started watching it — same
// registrations, same dispatch order, every run.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cloud/provider.hpp"
#include "simcore/clock.hpp"

namespace spothost::sched {

/// Edge-triggered threshold-crossing detector: feed it the above/below
/// observation at every price tick; it reports an edge exactly once per
/// crossing. A first observation that is already below the threshold is
/// steady state, not a crossing (a fresh adoption into a calm market must
/// not fire). reset() forgets history — call it when the reference market
/// changes.
class CrossingDetector {
 public:
  enum class Edge { kNone, kUp, kDown };

  Edge observe(bool above) noexcept {
    const bool crossed = would_edge(above);
    above_ = above;
    if (!crossed) return Edge::kNone;
    return above ? Edge::kUp : Edge::kDown;
  }

  /// Whether observe(above) WOULD report an edge, without recording the
  /// observation. would_edge(false) is "the last observation was above".
  /// Note an unobserved detector treats `above == false` as steady state,
  /// same as observe().
  [[nodiscard]] bool would_edge(bool above) const noexcept {
    return above_ ? *above_ != above : above;
  }

  void reset() noexcept { above_.reset(); }

 private:
  std::optional<bool> above_;
};

class MarketWatcher : private cloud::SpotMarket::PriceListener {
 public:
  using ListenerId = std::uint64_t;
  inline static constexpr ListenerId kInvalidListener = 0;

  enum class TriggerKind : std::uint8_t { kPriceChange, kHourBoundary };

  /// One typed notification. Only the fields of the firing kind are set.
  struct Trigger {
    TriggerKind kind = TriggerKind::kPriceChange;
    cloud::MarketIndex market = 0;  ///< kPriceChange
    double price = 0.0;             ///< kPriceChange
  };

  /// The listener surface. Direct interface dispatch — the watcher holds a
  /// raw pointer per listener; no std::function, no capture storage.
  class TriggerListener {
   public:
    virtual ~TriggerListener() = default;
    /// Listener contract:
    ///  * Delivery is synchronous, inside the provider/simulation event that
    ///    caused it — the callback observes the world exactly as the
    ///    trigger left it, and may issue provider requests, (un)register
    ///    listeners or change interests reentrantly (see the class comment
    ///    for when such a change takes effect).
    ///  * A kPriceChange trigger arrives only if the listener's declared
    ///    Interest matches the step (set_interest). A listener that
    ///    declares kNone or kAbove promises that every step it is not sent
    ///    would have been a complete no-op: no state change, no provider
    ///    call, no trace, no event scheduled. Hour triggers are always
    ///    delivered.
    ///  * Listeners sharing a market fire in the order they started
    ///    watching it; same registrations, same dispatch order, every run.
    ///  * The listener object must stay valid until remove_listener
    ///    returns; after that no further triggers are delivered, including
    ///    to recipients the in-flight dispatch has not reached yet.
    virtual void on_trigger(const Trigger& trigger) = 0;
  };

  /// Which price steps can make a listener act. An edge may be
  /// conservative (lower than the exact price where the listener starts to
  /// act): a superset delivery only costs a wasted visit, a missed one is a
  /// bug in the listener's declaration.
  struct Interest {
    enum class Kind : std::uint8_t {
      kNone,    ///< no price step can make the listener act
      kAbove,   ///< a step in `market` to a price > `edge`
      kAlways,  ///< every step in every watched market (the default)
    };
    Kind kind = Kind::kAlways;
    cloud::MarketIndex market = 0;  ///< kAbove only; must be a watched market
    double edge = 0.0;              ///< kAbove only

    [[nodiscard]] static Interest none() { return {Kind::kNone, 0, 0.0}; }
    [[nodiscard]] static Interest always() { return {}; }
    [[nodiscard]] static Interest above(cloud::MarketIndex market, double edge) {
      return {Kind::kAbove, market, edge};
    }
    bool operator==(const Interest&) const = default;
  };

  /// Deterministic work counters (machine-independent, so tests can gate on
  /// them).
  struct Stats {
    std::uint64_t price_steps = 0;  ///< price steps in watched markets
    std::uint64_t deliveries = 0;   ///< kPriceChange triggers delivered
  };

  MarketWatcher(sim::Clock& clock, cloud::CloudProvider& provider);

  /// Registers a listener (not owned; see TriggerListener::on_trigger for
  /// the delivery contract). Its interest starts as Interest::always().
  ListenerId add_listener(TriggerListener* listener);

  /// Deregisters: no further triggers are delivered. Provider-side feed
  /// subscriptions are kept (they are bounded by the market count and the
  /// watcher typically outlives any one listener).
  void remove_listener(ListenerId id);

  /// Adds `markets` to the set the listener receives kPriceChange triggers
  /// for. The underlying provider feed is subscribed on the first interest
  /// in a market, once, no matter how many listeners watch it afterwards.
  void watch(ListenerId id, const std::vector<cloud::MarketId>& markets);

  /// Declares which price steps the listener can act on; replaces the
  /// previous declaration. A kAbove interest in a market the listener does
  /// not watch delivers nothing. A change costs O(watched markets + distinct
  /// edges), independent of the listener count; re-declaring the current
  /// interest is a cheap no-op.
  void set_interest(ListenerId id, Interest interest);

  /// Schedules a kHourBoundary trigger for `id` at absolute time `at`.
  /// Returns the event handle to cancel it through.
  sim::EventHandle schedule_hour_tick(ListenerId id, sim::SimTime at);

  /// Provider-side price-feed subscriptions this watcher holds — bounded by
  /// the market count, never by the listener count.
  [[nodiscard]] std::size_t provider_subscriptions() const noexcept {
    return subscriptions_;
  }
  /// Live (registered, not yet removed) listeners.
  [[nodiscard]] std::size_t listener_count() const noexcept {
    return live_listeners_;
  }
  /// The listener's declared interest (Interest::none() once removed).
  [[nodiscard]] Interest interest(ListenerId id) const {
    return alive(id) ? slots_[static_cast<std::size_t>(id - 1)].interest
                     : Interest::none();
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// One recipient in a market: the listener and the order it started
  /// watching the market in (the dispatch order key).
  struct Entry {
    std::uint64_t seq;
    ListenerId id;
  };
  /// The kAbove filings of one market that share one edge (unordered).
  struct Bucket {
    double edge;
    std::vector<Entry> entries;
  };
  /// The interest index of one market.
  struct Book {
    bool subscribed = false;     ///< the provider feed is subscribed
    std::vector<Entry> always;   ///< kAlways watchers (unordered)
    std::vector<Bucket> above;   ///< non-empty buckets, ascending edge
  };
  struct Watch {
    cloud::MarketIndex market;
    std::uint64_t seq;
    /// Position of this watch's entry in the list it is filed in (the
    /// market's kAlways list or its bucket); meaningful only while filed.
    std::uint32_t pos = 0;
  };
  struct Slot {
    TriggerListener* listener = nullptr;  ///< nullptr = removed
    Interest interest;
    std::vector<Watch> watched;
  };

  [[nodiscard]] bool alive(ListenerId id) const noexcept {
    return id != kInvalidListener && id <= slots_.size() &&
           slots_[static_cast<std::size_t>(id - 1)].listener != nullptr;
  }
  /// cloud::SpotMarket::PriceListener — the one shared feed subscription.
  void on_price(const cloud::SpotMarket& market, double new_price) override {
    on_price_change(market.index(), new_price);
  }
  void on_price_change(cloud::MarketIndex market, double new_price);
  void deliver(ListenerId id, const Trigger& trigger);
  /// The list `watch` is filed in under `interest`, or nullptr if the
  /// interest files nothing there. `create` adds a missing kAbove bucket.
  std::vector<Entry>* filing(const Interest& interest, const Watch& watch, bool create);
  /// Adds (file) or removes (unfile) one watch of listener `id` to or from
  /// its market's index, per `interest`.
  void file(ListenerId id, const Interest& interest, Watch& watch);
  void unfile(const Interest& interest, const Watch& watch);

  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  /// Dense listener table indexed by id-1 (ids are never reused, so no
  /// generation counter is needed).
  std::vector<Slot> slots_;
  std::size_t live_listeners_ = 0;
  /// One index per market, by MarketIndex (grown on first watch).
  std::vector<Book> markets_;
  std::size_t subscriptions_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Recipient buffer reused across steps; a reentrant dispatch finds it
  /// taken (moved out) and allocates its own.
  std::vector<Entry> spare_;
  /// Entry lists of emptied buckets, kept for their capacity: a new bucket
  /// takes one, so a refile that re-creates a bucket allocates nothing.
  std::vector<std::vector<Entry>> spare_lists_;
  Stats stats_;
};

}  // namespace spothost::sched
