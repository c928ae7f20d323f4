#include "sched/market_watcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spothost::sched {

namespace {

// Watch order: the dispatch order of recipients within one market.
constexpr auto by_seq = [](const auto& a, const auto& b) { return a.seq < b.seq; };

}  // namespace

MarketWatcher::MarketWatcher(sim::Clock& clock, cloud::CloudProvider& provider)
    : clock_(clock), provider_(provider) {}

MarketWatcher::ListenerId MarketWatcher::add_listener(TriggerListener* listener) {
  if (listener == nullptr) {
    throw std::invalid_argument("MarketWatcher::add_listener: null listener");
  }
  slots_.push_back(Slot{listener, Interest::always(), {}});
  ++live_listeners_;
  return static_cast<ListenerId>(slots_.size());
}

void MarketWatcher::remove_listener(ListenerId id) {
  if (!alive(id)) return;
  Slot& slot = slots_[static_cast<std::size_t>(id - 1)];
  for (const Watch& w : slot.watched) unfile(id, slot, w);
  slot = Slot{};
  --live_listeners_;
}

void MarketWatcher::watch(ListenerId id, const std::vector<cloud::MarketId>& markets) {
  if (!alive(id)) return;
  Slot& slot = slots_[static_cast<std::size_t>(id - 1)];
  for (const auto& market : markets) {
    auto it = markets_.find(market);
    if (it == markets_.end()) {
      // First interest in this market: subscribe the one shared provider
      // feed. Later listeners piggyback on the same subscription.
      provider_.market(market).subscribe(
          static_cast<cloud::SpotMarket::PriceListener*>(this));
      it = markets_.emplace(market, MarketIndex{market, {}, {}}).first;
    }
    MarketIndex* index = &it->second;
    if (std::any_of(slot.watched.begin(), slot.watched.end(),
                    [index](const Watch& w) { return w.market == index; })) {
      continue;
    }
    slot.watched.push_back(Watch{index, next_seq_++});
    file(id, slot, slot.watched.back());
  }
}

void MarketWatcher::set_interest(ListenerId id, Interest interest) {
  if (!alive(id)) return;
  Slot& slot = slots_[static_cast<std::size_t>(id - 1)];
  if (slot.interest == interest) return;
  for (const Watch& w : slot.watched) unfile(id, slot, w);
  slot.interest = std::move(interest);
  for (const Watch& w : slot.watched) file(id, slot, w);
}

void MarketWatcher::file(ListenerId id, const Slot& slot, const Watch& watch) {
  MarketIndex& index = *watch.market;
  switch (slot.interest.kind) {
    case Interest::Kind::kNone:
      return;
    case Interest::Kind::kAlways: {
      const Entry entry{watch.seq, id};
      index.always.insert(std::upper_bound(index.always.begin(), index.always.end(),
                                           entry, by_seq),
                          entry);
      return;
    }
    case Interest::Kind::kAbove:
      if (index.id == slot.interest.market) {
        index.above.insert(AboveEntry{slot.interest.edge, watch.seq, id});
      }
      return;
  }
}

void MarketWatcher::unfile(ListenerId id, const Slot& slot, const Watch& watch) {
  MarketIndex& index = *watch.market;
  switch (slot.interest.kind) {
    case Interest::Kind::kNone:
      return;
    case Interest::Kind::kAlways: {
      const auto it = std::lower_bound(index.always.begin(), index.always.end(),
                                       Entry{watch.seq, id}, by_seq);
      if (it != index.always.end() && it->seq == watch.seq) index.always.erase(it);
      return;
    }
    case Interest::Kind::kAbove:
      if (index.id == slot.interest.market) {
        index.above.erase(AboveEntry{slot.interest.edge, watch.seq, id});
      }
      return;
  }
}

sim::EventHandle MarketWatcher::schedule_hour_tick(ListenerId id, sim::SimTime at) {
  return clock_.at(at, [this, id] {
    Trigger trigger;
    trigger.kind = TriggerKind::kHourBoundary;
    deliver(id, trigger);
  });
}

void MarketWatcher::arm_revocation(ListenerId id, cloud::InstanceId instance) {
  provider_.set_revocation_handler(
      instance, [this, id](cloud::InstanceId warned, sim::SimTime t_term) {
        Trigger trigger;
        trigger.kind = TriggerKind::kRevocation;
        trigger.instance = warned;
        trigger.t_term = t_term;
        deliver(id, trigger);
      });
}

void MarketWatcher::on_price_change(const cloud::MarketId& market, double new_price) {
  const auto it = markets_.find(market);
  if (it == markets_.end()) return;
  ++stats_.price_steps;
  const MarketIndex& index = it->second;
  // Recipients: every kAlways watcher plus the kAbove filings whose edge
  // lies below the new price, merged into watch order. The batch is
  // private to this step, so handlers may mutate the index reentrantly.
  std::vector<Entry> batch = std::move(spare_);
  batch.assign(index.always.begin(), index.always.end());
  for (auto e = index.above.begin(); e != index.above.end() && e->edge < new_price;
       ++e) {
    batch.push_back(Entry{e->seq, e->id});
  }
  if (!std::is_sorted(batch.begin(), batch.end(), by_seq)) {
    std::sort(batch.begin(), batch.end(), by_seq);
  }
  if (!batch.empty()) {
    Trigger trigger;
    trigger.kind = TriggerKind::kPriceChange;
    trigger.market = market;
    trigger.price = new_price;
    for (const Entry& e : batch) {
      if (!alive(e.id)) continue;  // removed mid-dispatch
      ++stats_.deliveries;
      slots_[static_cast<std::size_t>(e.id - 1)].listener->on_trigger(trigger);
    }
  }
  batch.clear();
  if (batch.capacity() > spare_.capacity()) spare_ = std::move(batch);
}

void MarketWatcher::deliver(ListenerId id, const Trigger& trigger) {
  if (!alive(id)) return;
  slots_[static_cast<std::size_t>(id - 1)].listener->on_trigger(trigger);
}

}  // namespace spothost::sched
