#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/sink.hpp"
#include "simcore/logging.hpp"

namespace spothost::sched {

using cloud::InstanceId;
using cloud::MarketIndex;
using sim::SimTime;

namespace {

constexpr double kLeadSafetyFactor = 1.3;  // allocation-latency headroom
constexpr SimTime kLeadSlack = 60 * sim::kSecond;
// Relative margin of a below-threshold interest edge: far above the few ulps
// effective_spot_price can round by, far below any real price step.
constexpr double kEdgeSlack = 1e-9;

}  // namespace

void CloudScheduler::trace(const HostEvent& event) {
  counters_.add(event.kind, event.code);
  if (auto* tracer = clock_.tracer(); tracer != nullptr && tracer->enabled()) {
    obs::TraceEvent e;
    e.t = clock_.now();
    e.kind = event.kind;
    e.code = event.code;
    e.instance = event.instance;
    e.value = event.value;
    e.aux = event.aux;
    if (event.market) e.market = provider_.name(*event.market);
    tracer->emit(e);
  }
}

CloudScheduler::CloudScheduler(sim::Clock& clock,
                               cloud::CloudProvider& provider,
                               workload::ServiceEndpoint& service,
                               SchedulerConfig config, sim::RngStream timing_rng)
    : CloudScheduler(clock, provider,
                     std::make_unique<MarketWatcher>(clock, provider),
                     /*shared_watcher=*/nullptr, service, std::move(config),
                     std::move(timing_rng)) {}

CloudScheduler::CloudScheduler(sim::Clock& clock,
                               cloud::CloudProvider& provider, MarketWatcher& watcher,
                               workload::ServiceEndpoint& service,
                               SchedulerConfig config, sim::RngStream timing_rng)
    : CloudScheduler(clock, provider, /*owned_watcher=*/nullptr, &watcher,
                     service, std::move(config), std::move(timing_rng)) {}

CloudScheduler::CloudScheduler(sim::Clock& clock,
                               cloud::CloudProvider& provider,
                               std::unique_ptr<MarketWatcher> owned_watcher,
                               MarketWatcher* shared_watcher,
                               workload::ServiceEndpoint& service,
                               SchedulerConfig config, sim::RngStream timing_rng)
    : clock_(clock),
      provider_(provider),
      service_(service),
      config_(std::move(config)),
      rng_(std::move(timing_rng)),
      spec_(config_.vm_spec),
      owned_watcher_(std::move(owned_watcher)),
      watcher_(owned_watcher_ ? *owned_watcher_ : *shared_watcher) {
  config_.validate();
  if (spec_.memory_gb <= 0) {
    const auto& info = cloud::type_info(config_.home_market.size);
    spec_ = virt::default_spec_for_memory(info.memory_gb, info.disk_gb);
  }
  if (!provider_.has_market(config_.home_market)) {
    throw std::invalid_argument("CloudScheduler: unknown home market " +
                                config_.home_market.str());
  }
  home_ = provider_.index(config_.home_market);
  if (config_.scope == MarketScope::kMultiRegion && config_.allowed_regions.empty()) {
    config_.allowed_regions = provider_.regions();
  }
  candidates_ = candidate_indices(provider_, config_.scope, config_.home_market,
                                  config_.allowed_regions);
  placement_ = placement_policy_for(config_);
  bidding_ = bid_strategy_for(config_);
  lease_owner_ = provider_.add_owner(static_cast<cloud::LeaseOwner*>(this));
  MigrationHost& host = *this;  // private base: convert in class scope
  engine_ = std::make_unique<MigrationEngine>(clock_, provider_, service_, host,
                                              lease_owner_, config_, spec_, rng_);
  listener_ = watcher_.add_listener(
      static_cast<MarketWatcher::TriggerListener*>(this));
  refresh_interest();
}

CloudScheduler::~CloudScheduler() {
  if (listener_ != MarketWatcher::kInvalidListener) {
    watcher_.remove_listener(listener_);
  }
  provider_.remove_owner(lease_owner_);
}

void CloudScheduler::set_owner_tag(std::uint64_t owner) {
  owner_tag_ = owner;
  engine_->set_owner_tag(owner);
}

int CloudScheduler::units_needed() const {
  if (config_.capacity_units_override > 0) return config_.capacity_units_override;
  return cloud::type_info(config_.home_market.size).capacity_units;
}

double CloudScheduler::od_threshold() const {
  // The home region's comparator is the home market itself.
  const std::optional<MarketIndex> od = holding_ ? holding_->od_market : home_;
  if (!od) {
    // No home-size market in the held region: the lookup throws naming it.
    return effective_on_demand_price(provider_,
                                     provider_.market(holding_->market).id().region,
                                     config_.home_market.size);
  }
  return provider_.od_price(*od);
}

std::optional<MarketIndex> CloudScheduler::od_market_near(MarketIndex market) const {
  const cloud::MarketId& id = provider_.market(market).id();
  if (id.size == config_.home_market.size) return market;
  const cloud::MarketId od{id.region, config_.home_market.size};
  if (!provider_.has_market(od)) return std::nullopt;
  return provider_.index(od);
}

PlacementQuery CloudScheduler::placement_query(double threshold) const {
  PlacementQuery query;
  query.units_needed = units_needed();
  query.max_effective_price = threshold;
  if (holding_ && !holding_->on_demand) {
    query.exclude = holding_->market;
  }
  query.avoid = avoid_markets_;
  query.candidates = candidates_;
  query.fallback_region = provider_.market(current_market()).id().region;
  query.now = clock_.now();
  return query;
}

SimTime CloudScheduler::planned_lead() const {
  const std::string& region = provider_.market(current_market()).id().region;
  const auto lat = provider_.allocation_latency(current_market());
  const auto t =
      engine_->planner().plan(virt::MigrationClass::kPlanned, spec_, region, region);
  return sim::from_seconds(lat.on_demand_mean_s * kLeadSafetyFactor + t.prepare_s +
                           t.downtime_s) +
         kLeadSlack;
}

SimTime CloudScheduler::reverse_lead() const {
  const std::string& region = provider_.market(current_market()).id().region;
  const auto lat = provider_.allocation_latency(current_market());
  const auto t =
      engine_->planner().plan(virt::MigrationClass::kReverse, spec_, region, region);
  return sim::from_seconds(lat.spot_mean_s * kLeadSafetyFactor + t.prepare_s +
                           t.downtime_s) +
         kLeadSlack;
}

SimTime CloudScheduler::next_instance_hour_boundary() const {
  if (!holding_) throw std::logic_error("next_instance_hour_boundary: no holding");
  const SimTime launch = provider_.instance(holding_->id).launch;
  const SimTime elapsed = clock_.now() - launch;
  const SimTime hours = elapsed / sim::kHour + 1;
  return launch + hours * sim::kHour;
}

void CloudScheduler::start() {
  // Watch every market the placement policy may choose from, plus the home
  // market (pure-spot reacquisition). Whatever the fleet size, the watcher
  // holds one provider subscription per market.
  auto markets = placement_->watched_markets(provider_, config_);
  if (std::find(markets.begin(), markets.end(), config_.home_market) ==
      markets.end()) {
    markets.push_back(config_.home_market);
  }
  watcher_.watch(listener_, markets);
  acquire_initial();
  refresh_interest();
}

void CloudScheduler::on_trigger(const MarketWatcher::Trigger& trigger) {
  switch (trigger.kind) {
    case MarketWatcher::TriggerKind::kPriceChange:
      on_price_change(trigger.market, trigger.price);
      break;
    case MarketWatcher::TriggerKind::kHourBoundary:
      hour_check_event_.reset();
      on_hour_check();
      break;
  }
  refresh_interest();
}

void CloudScheduler::on_ready(InstanceId instance, cloud::LeaseTag tag) {
  switch (const auto flow = static_cast<LeaseFlow>(tag)) {
    case LeaseFlow::kAcquire: {
      pending_acquire_ = cloud::kInvalidInstance;
      const cloud::Instance& inst = provider_.instance(instance);
      adopt(instance, inst.market, inst.mode == cloud::BillingMode::kOnDemand);
      break;
    }
    case LeaseFlow::kPureSpotReacquire:
      pure_spot_ready(instance);
      break;
    case LeaseFlow::kVoluntaryDest:
    case LeaseFlow::kForcedDest:
      engine_->lease_ready(instance, flow);
      break;
    case LeaseFlow::kHolding:
      break;  // never requested under this tag
  }
}

void CloudScheduler::on_failed(InstanceId instance, cloud::LeaseTag tag,
                               cloud::AllocFailure reason) {
  switch (const auto flow = static_cast<LeaseFlow>(tag)) {
    case LeaseFlow::kAcquire: {
      pending_acquire_ = cloud::kInvalidInstance;
      const cloud::Instance& inst = provider_.instance(instance);
      const MarketIndex market = inst.market;
      if (inst.mode == cloud::BillingMode::kOnDemand) {
        on_acquire_capacity_failed(market, /*was_spot=*/false);
        break;
      }
      trace({.kind = obs::EventKind::kSpotRequestFailed, .market = market});
      if (reason == cloud::AllocFailure::kInsufficientCapacity) {
        on_acquire_capacity_failed(market, /*was_spot=*/true);
        break;
      }
      acquire_initial();  // price moved; re-evaluate (likely on-demand now)
      break;
    }
    case LeaseFlow::kPureSpotReacquire:
      pending_acquire_ = cloud::kInvalidInstance;
      trace({.kind = obs::EventKind::kSpotRequestFailed, .market = home_});
      if (reason == cloud::AllocFailure::kInsufficientCapacity) {
        // Injected capacity fault: the price is fine, so no price-change
        // trigger will come — back off and retry the same market.
        on_acquire_capacity_failed(home_, /*was_spot=*/false);
      }
      // Price failure: wait for the next price change; on_price_change
      // retries.
      break;
    case LeaseFlow::kVoluntaryDest:
    case LeaseFlow::kForcedDest:
      engine_->lease_failed(instance, flow, reason);
      break;
    case LeaseFlow::kHolding:
      break;  // never requested under this tag
  }
}

void CloudScheduler::on_revocation(InstanceId instance, cloud::LeaseTag tag,
                                   SimTime t_term) {
  // The held server's warning is an entry point like a trigger, so the
  // interest is re-declared after it; a destination's warning goes to the
  // trigger handling the engine reports into, which re-declares its own.
  switch (static_cast<LeaseFlow>(tag)) {
    case LeaseFlow::kHolding:
      on_revocation_warning(instance, t_term);
      refresh_interest();
      break;
    case LeaseFlow::kVoluntaryDest:
      on_revocation_warning(instance, t_term);
      break;
    case LeaseFlow::kAcquire:
    case LeaseFlow::kPureSpotReacquire:
    case LeaseFlow::kForcedDest:
      break;  // never armed under these tags
  }
}

MarketWatcher::Interest CloudScheduler::price_interest() const {
  using Interest = MarketWatcher::Interest;
  // Case by case, the early returns of on_price_change.
  if (engine_->forced_active()) return Interest::none();
  if (!config_.on_demand_allowed()) {
    // Pure spot: reacquisition re-checks the home price on every step.
    return state_ == State::kDown || state_ == State::kAcquiring ? Interest::always()
                                                                 : Interest::none();
  }
  if (state_ != State::kOnSpot || !holding_ || !bidding_->plans_migrations(config_)) {
    return Interest::none();
  }
  // Above the threshold (a drop is a kDown crossing), waiting on a planned
  // begin, or before the transfer of a cancellable planned move: any step
  // in the held market may act.
  if (crossing_.would_edge(false) || planned_begin_event_.valid() ||
      (engine_->voluntary_class() == virt::MigrationClass::kPlanned &&
       !engine_->transfer_started() && config_.cancel_planned_on_price_drop)) {
    return Interest::above(holding_->market, -std::numeric_limits<double>::infinity());
  }
  // Steady below the threshold: only a step taking the effective price
  // above p_on acts. The slack keeps the edge below the exact crossing
  // price whatever the rounding of effective_spot_price.
  const double capacity =
      cloud::type_info(provider_.market(holding_->market).id().size).capacity_units;
  return Interest::above(holding_->market, od_threshold() * capacity / units_needed() *
                                               (1.0 - kEdgeSlack));
}

void CloudScheduler::refresh_interest() {
  watcher_.set_interest(listener_, price_interest());
}

void CloudScheduler::acquire_initial() {
  if (!config_.on_demand_allowed()) {
    pure_spot_reacquire();
    return;
  }
  // The home region's comparator: the home market's on-demand price.
  const double threshold = provider_.od_price(home_);
  const auto query = placement_query(threshold);
  const auto best = placement_->choose_spot(provider_, config_, query);
  if (best) {
    const MarketIndex target = provider_.index(best->market);
    pending_acquire_ = provider_.request_spot(target, best->bid, lease_owner_,
                                              tag(LeaseFlow::kAcquire));
    if (owner_tag_ != cloud::kNoOwner) {
      provider_.set_instance_owner(pending_acquire_, owner_tag_);
    }
    return;
  }
  const MarketIndex od_market =
      provider_.index(placement_->choose_on_demand(provider_, config_, query).market);
  pending_acquire_ =
      provider_.request_on_demand(od_market, lease_owner_, tag(LeaseFlow::kAcquire));
  if (owner_tag_ != cloud::kNoOwner) {
    provider_.set_instance_owner(pending_acquire_, owner_tag_);
  }
}

void CloudScheduler::on_acquire_capacity_failed(MarketIndex market, bool was_spot) {
  // Only skip the failed market when a fallback exists; the pure-spot
  // baseline (and an on-demand failure) must keep retrying the same market.
  if (was_spot && config_.on_demand_allowed() &&
      std::find(avoid_markets_.begin(), avoid_markets_.end(), market) ==
          avoid_markets_.end()) {
    avoid_markets_.push_back(market);
  }
  const int attempt = ++acquire_attempts_;
  const RetryPolicy& retry = config_.retry;
  double delay_s = 0.0;
  if (retry.retries_enabled() && attempt <= retry.max_attempts) {
    delay_s = retry.backoff_s(attempt);
  } else if (retry.graceful_degradation) {
    // Retry budget spent: announce degraded mode once, then slow-poll at the
    // backoff cap until something is granted.
    if (!degraded_acquire_) {
      degraded_acquire_ = true;
      trace({.kind = obs::EventKind::kDegradedMode,
             .code = obs::code::kDegradeSlowRetry,
             .market = market});
    }
    delay_s = retry.backoff_max_s;
  } else {
    // Retries off, no degradation: acquisition is abandoned and the service
    // stays down — the retries-off ablation arm measures exactly this.
    SPOTHOST_LOG(sim::LogLevel::kWarn, clock_.now(),
                 "acquisition in " << provider_.name(market)
                     << " failed (capacity); retries disabled, giving up");
    return;
  }
  trace({.kind = obs::EventKind::kRetryScheduled,
         .code = obs::code::kRetryAcquire,
         .value = static_cast<double>(attempt),
         .aux = delay_s,
         .market = market});
  clock_.after(sim::from_seconds(delay_s), [this] {
    if (pending_acquire_ != cloud::kInvalidInstance) return;
    if (state_ != State::kAcquiring && state_ != State::kDown) return;
    if (engine_->active()) return;
    acquire_initial();
  });
}

void CloudScheduler::adopt(InstanceId instance, MarketIndex market, bool on_demand) {
  holding_ = Holding{instance, market, on_demand, od_market_near(market)};
  state_ = on_demand ? State::kOnDemand : State::kOnSpot;
  crossing_.reset();  // crossings are relative to the adopted market
  acquire_attempts_ = 0;  // the fault-recovery episode ended in a grant
  avoid_markets_.clear();
  degraded_acquire_ = false;
  if (!service_live_) {
    service_.go_live(clock_.now());
    service_live_ = true;
  }
  if (!on_demand) {
    provider_.arm_revocation(instance, tag(LeaseFlow::kHolding));
    // Guard against adopting into an already-hot market.
    if (bidding_->plans_migrations(config_) && config_.on_demand_allowed() &&
        effective_spot_price(provider_, market, units_needed()) > od_threshold()) {
      maybe_schedule_planned();
    }
  } else {
    schedule_hour_check();
  }
  SPOTHOST_LOG(sim::LogLevel::kInfo, clock_.now(),
               "adopt " << provider_.name(market)
                        << (on_demand ? " (on-demand)" : " (spot)")
                        << " instance " << instance);
  refresh_interest();
}

// ---------------------------------------------------------------------------
// Price triggers
// ---------------------------------------------------------------------------

void CloudScheduler::on_price_change(MarketIndex market, double new_price) {
  (void)new_price;
  if (engine_->forced_active()) return;  // the forced flow owns the next transitions

  // Pure-spot reacquisition: the market dipped back below the bid (also
  // covers an initial acquisition that has been waiting for the price).
  if (!config_.on_demand_allowed() &&
      (state_ == State::kDown || state_ == State::kAcquiring)) {
    pure_spot_reacquire();
    return;
  }

  if (state_ != State::kOnSpot || !holding_ || market != holding_->market) return;
  if (!bidding_->plans_migrations(config_) || !config_.on_demand_allowed()) return;

  const double eff = effective_spot_price(provider_, market, units_needed());
  const double threshold = od_threshold();
  const bool above = eff > threshold;
  // Edge-triggered: one event per crossing of the on-demand threshold, not
  // one per price tick.
  if (crossing_.observe(above) != CrossingDetector::Edge::kNone) {
    trace({.kind = obs::EventKind::kPriceCrossing,
           .code = above ? obs::code::kAbove : obs::code::kBelow,
           .instance = holding_->id,
           .value = eff,
           .aux = threshold,
           .market = market});
  }
  if (above) {
    maybe_schedule_planned();
  } else {
    cancel_scheduled_planned();
    if (engine_->voluntary_class() == virt::MigrationClass::kPlanned &&
        !engine_->transfer_started() && config_.cancel_planned_on_price_drop) {
      engine_->abandon(AbandonReason::kPriceRecovered);
    }
  }
}

// ---------------------------------------------------------------------------
// Planned migrations
// ---------------------------------------------------------------------------

void CloudScheduler::maybe_schedule_planned() {
  if (engine_->active() || planned_begin_event_.valid()) return;
  if (config_.planned_timing == PlannedTiming::kImmediate) {
    begin_planned();
    return;
  }
  const SimTime begin_at = next_instance_hour_boundary() - planned_lead();
  if (begin_at <= clock_.now()) {
    begin_planned();
    return;
  }
  planned_begin_event_ = clock_.at(begin_at, [this] {
    planned_begin_event_.reset();
    if (state_ != State::kOnSpot || engine_->active() || !holding_) return;
    const double eff =
        effective_spot_price(provider_, holding_->market, units_needed());
    if (eff > od_threshold()) begin_planned();
    refresh_interest();
  });
}

void CloudScheduler::cancel_scheduled_planned() { planned_begin_event_.cancel(); }

void CloudScheduler::begin_planned() {
  if (state_ != State::kOnSpot || engine_->active() || !holding_) return;
  const double threshold = od_threshold() * config_.reverse_price_margin;
  const auto query = placement_query(threshold);
  const auto best = placement_->choose_spot(provider_, config_, query);
  const Placement target =
      best ? *best : placement_->choose_on_demand(provider_, config_, query);
  engine_->begin_voluntary(virt::MigrationClass::kPlanned, target, holding_->id);
}

void CloudScheduler::begin_reverse(const Placement& target) {
  if (state_ != State::kOnDemand || engine_->active() || !holding_) return;
  engine_->begin_voluntary(virt::MigrationClass::kReverse, target, holding_->id);
}

void CloudScheduler::on_voluntary_dest_failed(virt::MigrationClass cls) {
  if (cls == virt::MigrationClass::kReverse) {
    schedule_hour_check();  // try again next billing hour
  } else if (state_ == State::kOnSpot && holding_ && !engine_->forced_active() &&
             effective_spot_price(provider_, holding_->market, units_needed()) >
                 od_threshold()) {
    // Planned: the cheaper market evaporated (or the destination was revoked
    // before adoption); fall back through placement if the trigger still
    // holds.
    begin_planned();
  }
  refresh_interest();
}

// ---------------------------------------------------------------------------
// Reverse-migration hour checks
// ---------------------------------------------------------------------------

void CloudScheduler::schedule_hour_check() {
  if (state_ != State::kOnDemand || !holding_) return;
  hour_check_event_.cancel();
  SimTime check_at = next_instance_hour_boundary() - reverse_lead();
  while (check_at <= clock_.now()) check_at += sim::kHour;
  hour_check_event_ = watcher_.schedule_hour_tick(listener_, check_at);
}

void CloudScheduler::on_hour_check() {
  if (state_ != State::kOnDemand || engine_->active() || !holding_) return;
  trace({.kind = obs::EventKind::kBillingHourTick,
         .code = obs::code::kOnDemand,
         .instance = holding_->id,
         .market = holding_->market});
  const double threshold = od_threshold() * config_.reverse_price_margin;
  const auto best = placement_->choose_spot(provider_, config_,
                                            placement_query(threshold));
  if (best) {
    begin_reverse(*best);
  } else {
    schedule_hour_check();
  }
}

// ---------------------------------------------------------------------------
// Revocation warnings
// ---------------------------------------------------------------------------

void CloudScheduler::on_revocation_warning(InstanceId instance, SimTime t_term) {
  // A migration *destination* got warned before adoption: walk away from it
  // and retry through the normal trigger policy.
  if (const auto cls = engine_->dest_warned(instance)) {
    on_voluntary_dest_failed(*cls);
    return;
  }
  if (!holding_ || instance != holding_->id) return;  // stale warning

  if (!config_.on_demand_allowed()) {
    // Pure-spot baseline: checkpoint, go down, wait for the market.
    const std::string& region = provider_.market(holding_->market).id().region;
    const auto timings =
        engine_->planner().plan(virt::MigrationClass::kForced, spec_, region, region);
    const SimTime t_stop = std::max(clock_.now(),
                                    t_term - sim::from_seconds(timings.flush_s));
    clock_.at(t_stop, [this] {
      if (service_.is_up()) {
        service_.begin_outage(clock_.now(),
                              workload::OutageCause::kSpotLoss);
      }
    });
    clock_.at(t_term, [this] {
      holding_.reset();
      state_ = State::kDown;
      pure_spot_reacquire();
      refresh_interest();
    });
    return;
  }

  // If a voluntary transfer is already in flight and will finish before the
  // axe falls, just let it finish.
  if (const auto completion = engine_->voluntary_completion_time();
      completion && *completion <= t_term) {
    return;
  }

  engine_->begin_forced(t_term, holding_->id, holding_->market);
  refresh_interest();
}

// ---------------------------------------------------------------------------
// MigrationHost notifications
// ---------------------------------------------------------------------------

void CloudScheduler::on_forced_begin() {
  cancel_scheduled_planned();
  refresh_interest();
}

void CloudScheduler::on_source_lost() {
  holding_.reset();
  state_ = State::kDown;
  refresh_interest();
}

void CloudScheduler::on_source_released() {
  hour_check_event_.cancel();
  refresh_interest();
}

// ---------------------------------------------------------------------------
// Pure-spot baseline
// ---------------------------------------------------------------------------

void CloudScheduler::pure_spot_reacquire() {
  if (pending_acquire_ != cloud::kInvalidInstance) return;
  const MarketIndex home = home_;
  const double bid =
      bidding_->bid_for(provider_, config_, config_.home_market, clock_.now());
  if (provider_.price(home) > bid) return;  // wait for a price-change event
  pending_acquire_ = provider_.request_spot(home, bid, lease_owner_,
                                            tag(LeaseFlow::kPureSpotReacquire));
  if (owner_tag_ != cloud::kNoOwner) {
    provider_.set_instance_owner(pending_acquire_, owner_tag_);
  }
}

void CloudScheduler::pure_spot_ready(InstanceId iid) {
  pending_acquire_ = cloud::kInvalidInstance;
  const MarketIndex home = home_;
  if (!service_live_ || service_.is_up()) {
    adopt(iid, home, /*on_demand=*/false);
    return;
  }
  // Restoring after an outage: resume from the checkpoint volume.
  const std::string& region = config_.home_market.region;
  const auto timings =
      engine_->planner().plan(virt::MigrationClass::kForced, spec_, region, region);
  const SimTime restore = engine_->jittered(timings.restore_s);
  const SimTime degraded = engine_->jittered(timings.degraded_s);
  clock_.after(restore, [this, iid, degraded] {
    if (!service_.is_up()) {
      service_.end_outage(clock_.now(), degraded > 0);
      if (degraded > 0) {
        clock_.at(clock_.now() + degraded, [this] {
          service_.end_degraded(clock_.now());
        });
      }
    }
    adopt(iid, home_, /*on_demand=*/false);
  });
}

// ---------------------------------------------------------------------------

void CloudScheduler::finalize(SimTime horizon) {
  if (service_live_) {
    service_.finalize(horizon);
  } else {
    // Never came up (e.g. pure-spot market above bid for the whole run):
    // the whole horizon is an outage.
    service_.go_live(0);
    service_.begin_outage(0, workload::OutageCause::kSpotLoss);
    service_.finalize(horizon);
  }
}

}  // namespace spothost::sched
