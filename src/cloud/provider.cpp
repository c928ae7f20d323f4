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

LeaseOwnerId CloudProvider::add_owner(LeaseOwner* owner) {
  if (owner == nullptr) {
    throw std::invalid_argument("CloudProvider::add_owner: null owner");
  }
  owners_.push_back(owner);
  return static_cast<LeaseOwnerId>(owners_.size());
}

void CloudProvider::remove_owner(LeaseOwnerId id) {
  if (id != kNoLeaseOwner && id <= owners_.size()) owners_[id - 1] = nullptr;
}

InstanceId CloudProvider::request_on_demand(const MarketId& id, LeaseOwnerId owner,
                                            LeaseTag tag) {
  return request_on_demand(index(id), owner, tag);
}

void CloudProvider::require_owner(LeaseOwnerId owner) const {
  if (owner == kNoLeaseOwner || owner > owners_.size() || owners_[owner - 1] == nullptr) {
    throw std::invalid_argument("CloudProvider: request without a registered owner");
  }
}

InstanceId CloudProvider::request_on_demand(MarketIndex market, LeaseOwnerId owner,
                                            LeaseTag tag) {
  require_owner(owner);
  const MarketSlot& m = slot(market);
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kBidPlaced, clock_.now(), m.name);
    e.code = obs::code::kOnDemand;
    e.instance = issued_ + 1;
    e.value = m.market->on_demand_price();
    tracer->emit(e);
  }
  return issue(market, BillingMode::kOnDemand, 0.0, owner, tag);
}

InstanceId CloudProvider::request_spot(const MarketId& id, double bid,
                                       LeaseOwnerId owner, LeaseTag tag) {
  return request_spot(index(id), bid, owner, tag);
}

InstanceId CloudProvider::request_spot(MarketIndex market, double bid,
                                       LeaseOwnerId owner, LeaseTag tag) {
  if (bid <= 0) throw std::invalid_argument("request_spot: bid must be > 0");
  require_owner(owner);
  const MarketSlot& m = slot(market);
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kBidPlaced, clock_.now(), m.name);
    e.code = obs::code::kSpot;
    e.instance = issued_ + 1;
    e.value = bid;
    e.aux = m.market->price();
    tracer->emit(e);
  }
  return issue(market, BillingMode::kSpot, bid, owner, tag);
}

InstanceId CloudProvider::issue(MarketIndex market, BillingMode mode, double bid,
                                LeaseOwnerId owner, LeaseTag tag) {
  const InstanceId iid = issued_ + 1;
  const auto i = static_cast<std::size_t>(issued_);
  if (i % kChunkRecords == 0) chunks_.push_back(std::make_unique<Record[]>(kChunkRecords));
  issued_ = iid;
  Record& rec = at(iid);
  rec.inst.id = iid;
  rec.inst.market = market;
  rec.inst.mode = mode;
  rec.inst.bid = bid;
  rec.inst.requested_at = clock_.now();
  rec.owner = owner;
  rec.tag = tag;

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
  rec.grant =
      clock_.after(sim::from_seconds(delay_s), [this, iid] { complete_grant(iid); }).id();
  return iid;
}

void CloudProvider::complete_grant(InstanceId iid) {
  Record& rec = at(iid);
  if (rec.inst.state != InstanceState::kPending) return;  // cancelled
  Instance& inst = rec.inst;
  auto* injector = clock_.fault_injector();

  // Injected allocation timeout: the grant takes alloc_timeout_extra_s
  // longer (once per request); price and capacity are re-checked at the new
  // completion time, so a delayed spot grant can still be price-rejected.
  if (injector != nullptr && !rec.delayed &&
      injector->should_inject(faults::FaultKind::kAllocTimeout,
                              markets_[inst.market].name, iid)) {
    rec.delayed = true;
    rec.grant = clock_
                    .after(sim::from_seconds(injector->plan().alloc_timeout_extra_s),
                           [this, iid] { complete_grant(iid); })
                    .id();
    return;
  }
  rec.grant = sim::kInvalidEventId;

  // Injected capacity error: the provider has no server to hand out.
  if (injector != nullptr &&
      injector->should_inject(faults::FaultKind::kAllocInsufficientCapacity,
                              markets_[inst.market].name, iid)) {
    inst.state = InstanceState::kTerminated;
    SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                 "request " << iid << " failed: insufficient capacity (injected)");
    if (LeaseOwner* owner = lease_owner(rec.owner)) {
      owner->on_failed(iid, rec.tag, AllocFailure::kInsufficientCapacity);
    }
    return;
  }

  SpotMarket& market = *markets_[inst.market].market;
  if (inst.mode == BillingMode::kSpot) {
    const double current = market.price();
    if (current > inst.bid) {
      inst.state = InstanceState::kTerminated;
      SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                   "spot request " << iid << " rejected: price " << current
                                   << " > bid " << inst.bid);
      if (LeaseOwner* owner = lease_owner(rec.owner)) {
        owner->on_failed(iid, rec.tag, AllocFailure::kPriceAboveBid);
      }
      return;
    }
  }
  inst.state = InstanceState::kRunning;
  inst.launch = clock_.now();
  if (inst.mode == BillingMode::kSpot) index_bid(rec);
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
  if (LeaseOwner* owner = lease_owner(rec.owner)) owner->on_ready(iid, rec.tag);
}

void CloudProvider::index_bid(Record& rec) {
  RunningSpot& levels = markets_[rec.inst.market].running_spot;
  const double bid = rec.inst.bid;
  const auto it = std::lower_bound(
      levels.begin(), levels.end(), bid,
      [](const BidLevel& level, double b) { return level.bid < b; });
  if (it != levels.end() && it->bid == bid) {
    rec.level_pos = static_cast<std::uint32_t>(it->size());
    it->rest.push_back(rec.inst.id);
  } else {
    levels.insert(it, BidLevel{bid, rec.inst.id, {}});
    rec.level_pos = 0;
  }
}

void CloudProvider::unindex_bid(Record& rec) {
  RunningSpot& levels = markets_[rec.inst.market].running_spot;
  const auto it = std::lower_bound(
      levels.begin(), levels.end(), rec.inst.bid,
      [](const BidLevel& level, double b) { return level.bid < b; });
  // Swap-remove: the level's last id takes this one's place and learns its
  // new position.
  if (it->rest.empty()) {
    levels.erase(it);
    return;
  }
  const InstanceId moved = it->rest.back();
  it->rest.pop_back();
  if (moved != rec.inst.id) {
    it->at(rec.level_pos) = moved;
    at(moved).level_pos = rec.level_pos;
  }
}

void CloudProvider::cancel_request(InstanceId id) {
  if (!issued(id)) return;
  Record& rec = at(id);
  if (rec.inst.state != InstanceState::kPending) return;
  clock_.cancel(rec.grant);
  rec.grant = sim::kInvalidEventId;
  rec.inst.state = InstanceState::kTerminated;
}

void CloudProvider::set_instance_owner(InstanceId id, std::uint64_t owner) {
  record(id).inst.owner = owner;
}

void CloudProvider::arm_revocation(InstanceId id, LeaseTag tag) {
  Record& rec = record(id);
  if (rec.inst.mode != BillingMode::kSpot) {
    throw std::logic_error("arm_revocation: not a spot instance");
  }
  if (rec.inst.state == InstanceState::kTerminated) return;
  rec.armed = true;
  rec.revocation_tag = tag;
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
  return at(id);
}

const Instance& CloudProvider::instance(InstanceId id) const {
  if (!issued(id)) throw std::out_of_range("CloudProvider: unknown instance");
  return at(id).inst;
}

void CloudProvider::on_price_change(MarketIndex market, double new_price) {
  MarketSlot& m = markets_[market];
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kPriceChange, clock_.now(), m.name);
    e.value = new_price;
    tracer->emit(e);
  }
  // Walk this market's bid levels up to the new price; warn those whose bid
  // is now exceeded. Only the affected instances are visited — a price step
  // never scales with the fleet. Snapshot the ids: owners may mutate state.
  std::vector<InstanceId> to_warn = std::move(warn_spare_);
  to_warn.clear();
  for (const BidLevel& level : m.running_spot) {
    if (!(level.bid < new_price)) break;
    to_warn.push_back(level.first);
    to_warn.insert(to_warn.end(), level.rest.begin(), level.rest.end());
  }
  std::sort(to_warn.begin(), to_warn.end());  // deterministic order
  for (const InstanceId iid : to_warn) {
    Record& rec = at(iid);
    Instance& inst = rec.inst;
    if (inst.state == InstanceState::kRunning) unindex_bid(rec);
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
    // provider pulls the server. Unarmed instances are never faulted —
    // nobody would observe the difference. The delivery goes to the owner
    // and tag armed now, even if the lease has ended by then.
    const bool armed = rec.armed;
    const LeaseOwnerId owner = rec.owner;
    const LeaseTag tag = rec.revocation_tag;
    sim::SimTime deliver_at = clock_.now();
    if (armed) {
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
        clock_.at(deliver_at, [this, iid, owner, tag] {
          if (LeaseOwner* o = lease_owner(owner)) {
            o->on_revocation(iid, tag, at(iid).inst.termination_time);
          }
        });
      }
    }

    clock_.at(inst.termination_time, [this, iid] {
      Record& victim = at(iid);
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
    if (armed && deliver_at == clock_.now()) {
      if (LeaseOwner* o = lease_owner(owner)) {
        o->on_revocation(iid, tag, inst.termination_time);
      }
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
    unindex_bid(rec);
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
  ledger_.add(std::move(record));
}

void CloudProvider::finalize(sim::SimTime at_time) {
  // Cancel outstanding requests and bill running instances, in id order.
  for (InstanceId iid = 1; iid <= issued_; ++iid) {
    Record& rec = at(iid);
    switch (rec.inst.state) {
      case InstanceState::kPending:
        cancel_request(iid);
        break;
      case InstanceState::kRunning:
      case InstanceState::kWarned:
        complete_lease(rec, TerminationCause::kCustomer, at_time);
        break;
      case InstanceState::kTerminated:
        break;
    }
  }
}

}  // namespace spothost::cloud
