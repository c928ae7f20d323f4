// The cloud scheduler (Sec. 3): hosts an always-on service on spot servers,
// migrating between spot and on-demand servers with the paper's three
// migration classes (forced / planned / reverse).
//
// The scheduler is a thin state machine composing three layers:
//
//  * MarketWatcher  (sched/market_watcher.hpp) — *when* to move: price
//    ticks and billing-hour boundaries arrive as typed triggers. A watcher
//    can be shared by a whole fleet, holding one provider subscription per
//    market however many schedulers listen. Revocation warnings, grants and
//    request failures arrive from the provider directly: the scheduler is
//    the cloud::LeaseOwner of every request it and its engine make, and
//    dispatches on the request's LeaseFlow tag.
//  * PlacementPolicy (sched/placement.hpp) — *where* to move: destination
//    market, billing mode, and bid. The scope-driven default reproduces the
//    paper's single/multi-market/multi-region selection; custom policies
//    plug in via SchedulerConfig::placement.
//  * MigrationEngine (sched/migration_engine.hpp) — *how* to move: the
//    forced / planned / reverse mechanics, driving the VM mechanism models
//    and instance lifecycle, reporting back through MigrationHost.
//
// What remains here is the paper's *decision logic*: the state machine
// (acquiring / on-spot / on-demand / down), edge-triggered price-crossing
// detection, hour-end planned timing, reverse hour checks, spike
// cancellation, and the pure-spot baseline (Fig. 11) where a revocation
// simply leaves the service down until the market price returns.
//
// Observability: every trigger and migration phase is emitted as a
// HostEvent. Each one is counted in the scheduler's own CounterSink — the
// backing store stats() is derived from — and, only when the Simulation has
// an enabled tracer (Simulation::set_tracer), built into an obs::TraceEvent
// and fanned out to it. Untraced runs build no event and no market name.
#pragma once

#include <memory>
#include <optional>

#include "cloud/provider.hpp"
#include "obs/counter_sink.hpp"
#include "sched/bidding.hpp"
#include "sched/market_selection.hpp"
#include "sched/market_watcher.hpp"
#include "sched/migration_engine.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler_config.hpp"
#include "simcore/rng.hpp"
#include "simcore/clock.hpp"
#include "virt/mechanisms.hpp"
#include "workload/endpoint.hpp"

namespace spothost::sched {

class CloudScheduler : private MigrationHost,
                       private MarketWatcher::TriggerListener,
                       private cloud::LeaseOwner {
 public:
  enum class State { kAcquiring, kOnSpot, kOnDemand, kDown };

  /// Standalone scheduler: owns a private MarketWatcher. `clock` is the
  /// narrow scheduling interface (a Simulation&, implicitly) — the scheduler
  /// never touches the engine beyond it.
  CloudScheduler(sim::Clock& clock, cloud::CloudProvider& provider,
                 workload::ServiceEndpoint& service, SchedulerConfig config,
                 sim::RngStream timing_rng);

  /// Fleet composition: listens on a shared MarketWatcher, so N schedulers
  /// over M markets cost O(M) provider subscriptions instead of O(N×M).
  /// The watcher must outlive the scheduler.
  ///
  /// Either way the provider must outlive the scheduler: the scheduler is a
  /// registered cloud::LeaseOwner, and its destructor deregisters, so a
  /// destroyed scheduler is told nothing more.
  CloudScheduler(sim::Clock& clock, cloud::CloudProvider& provider,
                 MarketWatcher& watcher, workload::ServiceEndpoint& service,
                 SchedulerConfig config, sim::RngStream timing_rng);

  ~CloudScheduler() override;

  /// Kicks off initial acquisition. Call once before running the simulation.
  void start();

  /// Closes service accounting at the horizon. Call after run_until(horizon)
  /// and before reading availability. (Provider finalization is separate.)
  void finalize(sim::SimTime horizon);

  [[nodiscard]] State state() const noexcept { return state_; }
  /// Aggregate view derived on demand from the trace-event counters; by
  /// construction it can never disagree with an attached trace sink.
  [[nodiscard]] SchedulerStats stats() const { return scheduler_stats_from(counters_); }
  /// The raw per-event-kind counters backing stats().
  [[nodiscard]] const obs::CounterSink& counters() const noexcept { return counters_; }
  [[nodiscard]] const SchedulerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const virt::VmSpec& vm_spec() const noexcept { return spec_; }
  [[nodiscard]] cloud::InstanceId current_instance() const noexcept {
    return holding_ ? holding_->id : cloud::kInvalidInstance;
  }
  /// The trigger layer this scheduler listens on (owned or shared).
  [[nodiscard]] const MarketWatcher& watcher() const noexcept { return watcher_; }
  /// The destination-selection strategy in effect.
  [[nodiscard]] const PlacementPolicy& placement() const noexcept { return *placement_; }
  [[nodiscard]] const BidStrategy& bid_strategy() const noexcept { return *bidding_; }

  /// Capacity the hosted endpoint needs, in small-units (after any
  /// override) — the basis for effective-price packing and attribution.
  [[nodiscard]] int units_needed() const;

  /// Tags every instance this scheduler acquires from now on with `owner`
  /// in the provider's billing ledger, so fleet cost attribution can
  /// pro-rate each lease by the owning service's capacity need.
  void set_owner_tag(std::uint64_t owner);

 private:
  CloudScheduler(sim::Clock& clock, cloud::CloudProvider& provider,
                 std::unique_ptr<MarketWatcher> owned_watcher,
                 MarketWatcher* shared_watcher, workload::ServiceEndpoint& service,
                 SchedulerConfig config, sim::RngStream timing_rng);

  struct Holding {
    cloud::InstanceId id = cloud::kInvalidInstance;
    cloud::MarketIndex market = 0;
    bool on_demand = false;
    /// The home size's market in this region (the p_on comparator), if the
    /// provider has one.
    std::optional<cloud::MarketIndex> od_market;
  };

  // --- triggers (MarketWatcher listener) ------------------------------
  /// MarketWatcher::TriggerListener — direct interface delivery; no
  /// per-scheduler std::function on the price-tick path.
  void on_trigger(const MarketWatcher::Trigger& trigger) override;
  void on_price_change(cloud::MarketIndex market, double new_price);
  /// The price steps on_price_change can act on, as a function of the
  /// current state alone (see MarketWatcher::Interest).
  [[nodiscard]] MarketWatcher::Interest price_interest() const;
  /// Re-declares price_interest() to the watcher. Called at the end of
  /// every entry point that can change the state it reads: triggers,
  /// adoption, engine notifications and the scheduler's own timers.
  void refresh_interest();
  void on_hour_check();

  // --- leases (cloud::LeaseOwner) --------------------------------------
  /// Grants, failures and warnings of every request this scheduler and its
  /// engine made, dispatched on the LeaseFlow tag.
  void on_ready(cloud::InstanceId instance, cloud::LeaseTag tag) override;
  void on_failed(cloud::InstanceId instance, cloud::LeaseTag tag,
                 cloud::AllocFailure reason) override;
  void on_revocation(cloud::InstanceId instance, cloud::LeaseTag tag,
                     sim::SimTime t_term) override;
  void on_revocation_warning(cloud::InstanceId instance, sim::SimTime t_term);

  // --- acquisition ----------------------------------------------------
  void acquire_initial();
  /// Fault-recovery ladder for injected capacity failures while acquiring:
  /// bounded backoff retries walking the avoid-list fallback chain
  /// (next-cheapest spot market, then on-demand), then graceful degradation
  /// (slow polling at the backoff cap) or give-up per config_.retry.
  void on_acquire_capacity_failed(cloud::MarketIndex market, bool was_spot);

  // --- planned / reverse decision logic --------------------------------
  void maybe_schedule_planned();
  void cancel_scheduled_planned();
  void begin_planned();
  void begin_reverse(const Placement& target);
  void schedule_hour_check();

  // --- pure spot --------------------------------------------------------
  void pure_spot_reacquire();
  /// The pure-spot request `instance` was granted: adopt it, resuming from
  /// the checkpoint volume if the service is down.
  void pure_spot_ready(cloud::InstanceId instance);

  // --- helpers ----------------------------------------------------------
  [[nodiscard]] double od_threshold() const;  ///< p_on comparator in current region
  /// The home size's market in `market`'s region, if the provider has one.
  [[nodiscard]] std::optional<cloud::MarketIndex> od_market_near(
      cloud::MarketIndex market) const;
  /// The held market, else the home market: the region decisions run in.
  [[nodiscard]] cloud::MarketIndex current_market() const noexcept {
    return holding_ ? holding_->market : home_;
  }
  [[nodiscard]] PlacementQuery placement_query(double threshold) const;
  [[nodiscard]] sim::SimTime planned_lead() const;
  [[nodiscard]] sim::SimTime reverse_lead() const;
  [[nodiscard]] sim::SimTime next_instance_hour_boundary() const;

  // --- MigrationHost (the engine's view of this scheduler) --------------
  [[nodiscard]] cloud::InstanceId source_instance() const noexcept override {
    return holding_ ? holding_->id : cloud::kInvalidInstance;
  }
  [[nodiscard]] cloud::MarketIndex source_market() const override {
    return current_market();
  }
  void adopt(cloud::InstanceId instance, cloud::MarketIndex market,
             bool on_demand) override;
  void on_forced_begin() override;
  void on_source_lost() override;
  void on_source_released() override;
  void on_voluntary_dest_failed(virt::MigrationClass cls) override;

  /// Counts the event in counters_ (the stats backing store) and, if the
  /// clock's tracer is enabled, emits it there as an obs::TraceEvent.
  void trace(const HostEvent& event) override;

  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  workload::ServiceEndpoint& service_;
  SchedulerConfig config_;
  sim::RngStream rng_;
  virt::VmSpec spec_;
  std::unique_ptr<MarketWatcher> owned_watcher_;  ///< standalone mode only
  MarketWatcher& watcher_;
  std::shared_ptr<const PlacementPolicy> placement_;
  std::shared_ptr<const BidStrategy> bidding_;
  std::unique_ptr<MigrationEngine> engine_;
  MarketWatcher::ListenerId listener_ = MarketWatcher::kInvalidListener;
  cloud::LeaseOwnerId lease_owner_ = cloud::kNoLeaseOwner;
  cloud::MarketIndex home_ = 0;  ///< config_.home_market
  /// config_'s scope candidates, resolved once; every PlacementQuery
  /// carries them.
  std::vector<cloud::MarketIndex> candidates_;

  State state_ = State::kAcquiring;
  bool service_live_ = false;
  std::optional<Holding> holding_;
  sim::EventHandle planned_begin_event_;
  sim::EventHandle hour_check_event_;
  cloud::InstanceId pending_acquire_ = cloud::kInvalidInstance;
  obs::CounterSink counters_;
  // --- fault-recovery state (reset on every adopt) ----------------------
  int acquire_attempts_ = 0;  ///< capacity-failed acquisitions this episode
  /// Markets that capacity-failed this episode; placement skips them so each
  /// retry walks to the next-cheapest market and finally on-demand.
  std::vector<cloud::MarketIndex> avoid_markets_;
  bool degraded_acquire_ = false;  ///< slow-poll degraded mode announced
  /// Edge-triggered crossings of the on-demand threshold, relative to the
  /// adopted market. Reset whenever a new instance is adopted.
  CrossingDetector crossing_;
  /// Ledger attribution tag for every instance this scheduler requests
  /// (kNoOwner = untagged, the standalone default).
  std::uint64_t owner_tag_ = cloud::kNoOwner;
};

}  // namespace spothost::sched
