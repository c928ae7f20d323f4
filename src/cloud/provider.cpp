#include "cloud/provider.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "faults/injector.hpp"
#include "obs/sink.hpp"
#include "simcore/logging.hpp"

namespace spothost::cloud {

namespace {

obs::TraceEvent provider_event(obs::EventKind kind, sim::SimTime t,
                               const std::string& market) {
  obs::TraceEvent e;
  e.t = t;
  e.kind = kind;
  e.market = market;
  return e;
}

}  // namespace

CloudProvider::CloudProvider(sim::Clock& clock,
                             const sim::RngFactory& rng_factory,
                             sim::SimTime grace_period)
    : clock_(clock), rng_factory_(rng_factory), grace_(grace_period) {
  if (grace_ < 0) throw std::invalid_argument("CloudProvider: negative grace period");
}

void CloudProvider::add_market(MarketId id, trace::PriceTrace price_trace,
                               double od_price) {
  if (started_) throw std::logic_error("CloudProvider: add_market after start");
  if (index_.contains(id)) {
    throw std::invalid_argument("CloudProvider: duplicate market " + id.str());
  }
  const auto idx = static_cast<MarketIndex>(markets_.size());
  adopt_market(std::make_unique<SpotMarket>(clock_, std::move(id), std::move(price_trace),
                                            od_price, idx));
}

void CloudProvider::add_live_market(MarketId id, double od_price) {
  if (started_) throw std::logic_error("CloudProvider: add_live_market after start");
  if (index_.contains(id)) {
    throw std::invalid_argument("CloudProvider: duplicate market " + id.str());
  }
  const auto idx = static_cast<MarketIndex>(markets_.size());
  adopt_market(std::make_unique<SpotMarket>(clock_, std::move(id), od_price, idx));
}

void CloudProvider::adopt_market(std::unique_ptr<SpotMarket> market_ptr) {
  market_ptr->subscribe(static_cast<SpotMarket::PriceListener*>(this));
  MarketSlot slot;
  slot.name = market_ptr->id().str();
  slot.region = region_index(market_ptr->id().region);
  index_.emplace(market_ptr->id(), market_ptr->index());
  slot.market = std::move(market_ptr);
  markets_.push_back(std::move(slot));
}

const CloudProvider::MarketSlot& CloudProvider::slot(MarketIndex idx) const {
  if (idx >= markets_.size()) {
    throw std::out_of_range("CloudProvider: unknown market index " + std::to_string(idx));
  }
  return markets_[idx];
}

CloudProvider::MarketSlot& CloudProvider::slot(MarketIndex idx) {
  return const_cast<MarketSlot&>(std::as_const(*this).slot(idx));
}

std::uint32_t CloudProvider::region_index(const std::string& region) {
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    if (regions_[r].name == region) return static_cast<std::uint32_t>(r);
  }
  regions_.push_back(Region{region, std::nullopt, nullptr});
  return static_cast<std::uint32_t>(regions_.size() - 1);
}

void CloudProvider::set_allocation_latency(const std::string& region,
                                           AllocationLatency latency) {
  regions_[region_index(region)].latency = latency;
}

AllocationLatency CloudProvider::allocation_latency(const std::string& region) const {
  for (const Region& r : regions_) {
    if (r.name == region) return r.latency.value_or(AllocationLatency{});
  }
  return AllocationLatency{};
}

AllocationLatency CloudProvider::allocation_latency(MarketIndex market) const {
  return regions_[slot(market).region].latency.value_or(AllocationLatency{});
}

void CloudProvider::start() {
  if (started_) throw std::logic_error("CloudProvider::start called twice");
  started_ = true;
  for (const MarketSlot& m : markets_) m.market->start();
}

MarketIndex CloudProvider::index(const MarketId& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    throw std::out_of_range("CloudProvider: unknown market " + id.str());
  }
  return it->second;
}

SpotMarket& CloudProvider::market(const MarketId& id) { return market(index(id)); }

const SpotMarket& CloudProvider::market(const MarketId& id) const {
  return market(index(id));
}

bool CloudProvider::has_market(const MarketId& id) const { return index_.contains(id); }

std::vector<MarketId> CloudProvider::all_markets() const {
  std::vector<MarketId> out;
  out.reserve(markets_.size());
  for (const MarketSlot& m : markets_) out.push_back(m.market->id());
  return out;
}

std::vector<MarketId> CloudProvider::markets_in_region(const std::string& region) const {
  std::vector<MarketId> out;
  for (const MarketSlot& m : markets_) {
    if (m.market->id().region == region) out.push_back(m.market->id());
  }
  return out;
}

std::vector<std::string> CloudProvider::regions() const {
  std::vector<std::string> out;
  for (const MarketSlot& m : markets_) {
    const std::string& region = m.market->id().region;
    if (std::find(out.begin(), out.end(), region) == out.end()) out.push_back(region);
  }
  return out;
}

InstanceId CloudProvider::request_on_demand(const MarketId& id, ReadyCallback on_ready,
                                            FailCallback on_fail) {
  return request_on_demand(index(id), std::move(on_ready), std::move(on_fail));
}

InstanceId CloudProvider::request_on_demand(MarketIndex market, ReadyCallback on_ready,
                                            FailCallback on_fail) {
  const MarketSlot& m = slot(market);
  const auto iid = static_cast<InstanceId>(instances_.size() + 1);
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kBidPlaced, clock_.now(), m.name);
    e.code = obs::code::kOnDemand;
    e.instance = iid;
    e.value = m.market->on_demand_price();
    tracer->emit(e);
  }
  return issue(market, BillingMode::kOnDemand, 0.0, std::move(on_ready),
               std::move(on_fail));
}

InstanceId CloudProvider::request_spot(const MarketId& id, double bid,
                                       ReadyCallback on_ready, FailCallback on_fail) {
  return request_spot(index(id), bid, std::move(on_ready), std::move(on_fail));
}

InstanceId CloudProvider::request_spot(MarketIndex market, double bid,
                                       ReadyCallback on_ready, FailCallback on_fail) {
  if (bid <= 0) throw std::invalid_argument("request_spot: bid must be > 0");
  const MarketSlot& m = slot(market);
  const auto iid = static_cast<InstanceId>(instances_.size() + 1);
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kBidPlaced, clock_.now(), m.name);
    e.code = obs::code::kSpot;
    e.instance = iid;
    e.value = bid;
    e.aux = m.market->price();
    tracer->emit(e);
  }
  return issue(market, BillingMode::kSpot, bid, std::move(on_ready), std::move(on_fail));
}

InstanceId CloudProvider::issue(MarketIndex market, BillingMode mode, double bid,
                                ReadyCallback on_ready, FailCallback on_fail) {
  const auto iid = static_cast<InstanceId>(instances_.size() + 1);
  Record& rec = instances_.emplace_back();
  rec.inst.id = iid;
  rec.inst.market = market;
  rec.inst.mode = mode;
  rec.inst.bid = bid;
  rec.inst.requested_at = clock_.now();

  Region& region = regions_[markets_[market].region];
  const AllocationLatency lat = region.latency.value_or(AllocationLatency{});
  if (!region.rng) {
    region.rng = std::make_unique<sim::RngStream>(
        rng_factory_.stream("alloc-latency/" + region.name));
  }
  const double delay_s = mode == BillingMode::kSpot
                             ? region.rng->lognormal_mean_cv(lat.spot_mean_s, lat.spot_cv)
                             : region.rng->lognormal_mean_cv(lat.on_demand_mean_s,
                                                             lat.on_demand_cv);

  if (free_sides_.empty()) {
    rec.side = static_cast<std::uint32_t>(sides_.size());
    sides_.emplace_back();
  } else {
    rec.side = free_sides_.back();
    free_sides_.pop_back();
  }
  Side& side = sides_[rec.side];
  side.on_ready = std::move(on_ready);
  side.on_fail = std::move(on_fail);
  side.grant =
      clock_.after(sim::from_seconds(delay_s), [this, iid] { complete_grant(iid); });
  return iid;
}

void CloudProvider::release_side(Record& rec) {
  if (rec.side == kNoSide) return;
  sides_[rec.side] = Side{};
  free_sides_.push_back(rec.side);
  rec.side = kNoSide;
}

void CloudProvider::complete_grant(InstanceId iid) {
  Record& rec = record(iid);
  if (rec.inst.state != InstanceState::kPending) return;  // cancelled
  Instance& inst = rec.inst;
  auto* injector = clock_.fault_injector();

  // Injected allocation timeout: the grant takes alloc_timeout_extra_s
  // longer (once per request); price and capacity are re-checked at the new
  // completion time, so a delayed spot grant can still be price-rejected.
  if (injector != nullptr && !sides_[rec.side].delayed &&
      injector->should_inject(faults::FaultKind::kAllocTimeout,
                              markets_[inst.market].name, iid)) {
    Side& side = sides_[rec.side];
    side.delayed = true;
    side.grant =
        clock_.after(sim::from_seconds(injector->plan().alloc_timeout_extra_s),
                     [this, iid] { complete_grant(iid); });
    return;
  }

  // Callbacks leave the side slot before any of them runs: they may issue
  // requests, which can grow (and move) the side table.
  Side& side = sides_[rec.side];
  const ReadyCallback on_ready = std::move(side.on_ready);
  const FailCallback on_fail = std::move(side.on_fail);
  side.grant.reset();

  // Injected capacity error: the provider has no server to hand out. Only
  // requests that supplied a failure path are eligible — an unobservable
  // failure would silently strand the requester.
  if (on_fail && injector != nullptr &&
      injector->should_inject(faults::FaultKind::kAllocInsufficientCapacity,
                              markets_[inst.market].name, iid)) {
    inst.state = InstanceState::kTerminated;
    release_side(rec);
    SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                 "request " << iid << " failed: insufficient capacity (injected)");
    on_fail(AllocFailure::kInsufficientCapacity);
    return;
  }

  SpotMarket& market = *markets_[inst.market].market;
  if (inst.mode == BillingMode::kSpot) {
    const double current = market.price();
    if (current > inst.bid) {
      inst.state = InstanceState::kTerminated;
      release_side(rec);
      SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                   "spot request " << iid << " rejected: price " << current
                                   << " > bid " << inst.bid);
      if (on_fail) on_fail(AllocFailure::kPriceAboveBid);
      return;
    }
  }
  inst.state = InstanceState::kRunning;
  inst.launch = clock_.now();
  if (inst.mode == BillingMode::kSpot) {
    markets_[inst.market].running_spot.emplace(inst.bid, iid);
  }
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kAcquisition, clock_.now(),
                            markets_[inst.market].name);
    e.instance = iid;
    if (inst.mode == BillingMode::kSpot) {
      e.code = obs::code::kSpot;
      e.value = market.price();
      e.aux = inst.bid;
    } else {
      e.code = obs::code::kOnDemand;
      e.value = market.on_demand_price();
    }
    tracer->emit(e);
  }
  if (on_ready) on_ready(iid);
}

void CloudProvider::cancel_request(InstanceId id) {
  if (!issued(id)) return;
  Record& rec = instances_[static_cast<std::size_t>(id - 1)];
  if (rec.inst.state != InstanceState::kPending) return;
  sides_[rec.side].grant.cancel();
  release_side(rec);
  rec.inst.state = InstanceState::kTerminated;
}

void CloudProvider::set_instance_owner(InstanceId id, std::uint64_t owner) {
  record(id).inst.owner = owner;
}

void CloudProvider::set_revocation_handler(InstanceId id, RevocationHandler handler) {
  Record& rec = record(id);
  if (rec.inst.mode != BillingMode::kSpot) {
    throw std::logic_error("set_revocation_handler: not a spot instance");
  }
  if (rec.side != kNoSide) sides_[rec.side].on_revocation = std::move(handler);
}

void CloudProvider::terminate(InstanceId id) {
  Record& rec = record(id);
  if (rec.inst.state == InstanceState::kPending) {
    cancel_request(id);
    return;
  }
  if (rec.inst.state == InstanceState::kTerminated) return;
  complete_lease(rec, TerminationCause::kCustomer, clock_.now());
}

CloudProvider::Record& CloudProvider::record(InstanceId id) {
  if (!issued(id)) throw std::out_of_range("CloudProvider: unknown instance");
  return instances_[static_cast<std::size_t>(id - 1)];
}

const Instance& CloudProvider::instance(InstanceId id) const {
  if (!issued(id)) throw std::out_of_range("CloudProvider: unknown instance");
  return instances_[static_cast<std::size_t>(id - 1)].inst;
}

void CloudProvider::on_price_change(MarketIndex market, double new_price) {
  MarketSlot& m = markets_[market];
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kPriceChange, clock_.now(), m.name);
    e.value = new_price;
    tracer->emit(e);
  }
  // Walk this market's running spot index up to the new price; warn those
  // whose bid is now exceeded. Only the affected instances are visited — a
  // price step never scales with the fleet. Snapshot the ids: handlers may
  // mutate state.
  std::vector<InstanceId> to_warn = std::move(warn_spare_);
  to_warn.clear();
  for (auto it = m.running_spot.begin();
       it != m.running_spot.end() && it->first < new_price; ++it) {
    to_warn.push_back(it->second);
  }
  std::sort(to_warn.begin(), to_warn.end());  // deterministic order
  for (const InstanceId iid : to_warn) {
    Record& rec = record(iid);
    Instance& inst = rec.inst;
    m.running_spot.erase({inst.bid, inst.id});
    inst.state = InstanceState::kWarned;
    inst.termination_time = clock_.now() + grace_;
    SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                 "revocation warning for " << iid << " in " << m.name
                                           << ", termination at "
                                           << sim::format_time(inst.termination_time));

    // Injected warning-delivery faults. A dropped warning reaches the
    // customer only at termination time (zero effective grace); a delayed
    // one arrives warning_delay_s late, capped at t_term. The delivery
    // event is scheduled BEFORE the termination event so that, at equal
    // timestamps, FIFO dispatch hands the customer the warning before the
    // provider pulls the server. Instances without a registered handler are
    // never faulted — nobody would observe the difference.
    RevocationHandler handler = sides_[rec.side].on_revocation;
    sim::SimTime deliver_at = clock_.now();
    if (handler) {
      if (auto* injector = clock_.fault_injector()) {
        if (injector->should_inject(faults::FaultKind::kWarningDropped, m.name, iid)) {
          deliver_at = inst.termination_time;
        } else if (injector->should_inject(faults::FaultKind::kWarningDelayed, m.name,
                                           iid)) {
          deliver_at = std::min(
              clock_.now() + sim::from_seconds(injector->plan().warning_delay_s),
              inst.termination_time);
        }
      }
      if (deliver_at > clock_.now()) {
        clock_.at(deliver_at, [handler, iid, t_term = inst.termination_time] {
          handler(iid, t_term);
        });
      }
    }

    clock_.at(inst.termination_time, [this, iid] {
      Record& victim = record(iid);
      if (victim.inst.state != InstanceState::kWarned) return;  // customer beat us
      complete_lease(victim, TerminationCause::kProviderRevoked, clock_.now());
    });
    if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
      auto e = provider_event(obs::EventKind::kRevocationWarning, clock_.now(), m.name);
      e.instance = iid;
      e.value = new_price;
      e.aux = sim::to_seconds(inst.termination_time);
      tracer->emit(e);
    }
    if (handler && deliver_at == clock_.now()) {
      handler(iid, inst.termination_time);
    }
  }
  to_warn.clear();
  if (to_warn.capacity() > warn_spare_.capacity()) warn_spare_ = std::move(to_warn);
}

void CloudProvider::complete_lease(Record& rec, TerminationCause cause,
                                   sim::SimTime end) {
  Instance& inst = rec.inst;
  MarketSlot& m = markets_[inst.market];
  if (inst.mode == BillingMode::kSpot && inst.state == InstanceState::kRunning) {
    m.running_spot.erase({inst.bid, inst.id});
  }
  BillingRecord record;
  record.instance_id = inst.id;
  record.market = inst.market;
  record.mode = inst.mode;
  record.launch = inst.launch;
  record.end = end;
  record.cause = cause;
  record.owner = inst.owner;
  if (inst.mode == BillingMode::kOnDemand) {
    record.cost = on_demand_cost(m.market->on_demand_price(), inst.launch, end);
  } else {
    record.cost = spot_cost(m.market->billable_trace(end), inst.launch, end, cause);
  }
  inst.state = InstanceState::kTerminated;
  release_side(rec);
  ledger_.add(std::move(record));
}

void CloudProvider::finalize(sim::SimTime at) {
  // Cancel outstanding requests and bill running instances, in id order.
  for (Record& rec : instances_) {
    switch (rec.inst.state) {
      case InstanceState::kPending:
        cancel_request(rec.inst.id);
        break;
      case InstanceState::kRunning:
      case InstanceState::kWarned:
        complete_lease(rec, TerminationCause::kCustomer, at);
        break;
      case InstanceState::kTerminated:
        break;
    }
  }
}

}  // namespace spothost::cloud
