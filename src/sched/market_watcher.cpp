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
  for (const Watch& w : slot.watched) unfile(slot.interest, w);
  slot = Slot{};
  --live_listeners_;
}

void MarketWatcher::watch(ListenerId id, const std::vector<cloud::MarketId>& markets) {
  if (!alive(id)) return;
  for (const auto& market : markets) {
    const cloud::MarketIndex idx = provider_.index(market);
    if (idx >= markets_.size()) markets_.resize(idx + 1);
    Book& book = markets_[idx];
    if (!book.subscribed) {
      // First interest in this market: subscribe the one shared provider
      // feed. Later listeners piggyback on the same subscription.
      provider_.market(idx).subscribe(
          static_cast<cloud::SpotMarket::PriceListener*>(this));
      book.subscribed = true;
      ++subscriptions_;
    }
    Slot& slot = slots_[static_cast<std::size_t>(id - 1)];
    if (std::any_of(slot.watched.begin(), slot.watched.end(),
                    [idx](const Watch& w) { return w.market == idx; })) {
      continue;
    }
    slot.watched.push_back(Watch{idx, next_seq_++});
    file(id, slot.interest, slot.watched.back());
  }
}

void MarketWatcher::set_interest(ListenerId id, Interest interest) {
  if (!alive(id)) return;
  Slot& slot = slots_[static_cast<std::size_t>(id - 1)];
  if (slot.interest == interest) return;
  for (const Watch& w : slot.watched) unfile(slot.interest, w);
  slot.interest = interest;
  for (Watch& w : slot.watched) file(id, slot.interest, w);
}

std::vector<MarketWatcher::Entry>* MarketWatcher::filing(const Interest& interest,
                                                         const Watch& watch,
                                                         bool create) {
  Book& book = markets_[watch.market];
  switch (interest.kind) {
    case Interest::Kind::kNone:
      return nullptr;
    case Interest::Kind::kAlways:
      return &book.always;
    case Interest::Kind::kAbove: {
      if (interest.market != watch.market) return nullptr;
      const auto it = std::lower_bound(
          book.above.begin(), book.above.end(), interest.edge,
          [](const Bucket& b, double edge) { return b.edge < edge; });
      if (it != book.above.end() && it->edge == interest.edge) return &it->entries;
      if (!create) return nullptr;
      Bucket bucket{interest.edge, {}};
      if (!spare_lists_.empty()) {
        bucket.entries = std::move(spare_lists_.back());
        spare_lists_.pop_back();
      }
      return &book.above.insert(it, std::move(bucket))->entries;
    }
  }
  return nullptr;
}

void MarketWatcher::file(ListenerId id, const Interest& interest, Watch& watch) {
  std::vector<Entry>* list = filing(interest, watch, /*create=*/true);
  if (list == nullptr) return;
  watch.pos = static_cast<std::uint32_t>(list->size());
  list->push_back(Entry{watch.seq, id});
}

void MarketWatcher::unfile(const Interest& interest, const Watch& watch) {
  std::vector<Entry>* list = filing(interest, watch, /*create=*/false);
  if (list == nullptr) return;
  // Swap-remove: the last entry takes this one's place, and its watch
  // learns its new position.
  const Entry moved = list->back();
  (*list)[watch.pos] = moved;
  list->pop_back();
  if (moved.seq != watch.seq) {
    for (Watch& w : slots_[static_cast<std::size_t>(moved.id - 1)].watched) {
      if (w.market == watch.market) {
        w.pos = watch.pos;
        break;
      }
    }
  }
  if (list->empty() && interest.kind == Interest::Kind::kAbove) {
    // An emptied bucket leaves the step path; its list's capacity waits
    // for the next bucket created, so refiling back allocates nothing.
    auto& above = markets_[watch.market].above;
    const auto it = std::find_if(above.begin(), above.end(),
                                 [list](const Bucket& b) { return &b.entries == list; });
    spare_lists_.push_back(std::move(it->entries));
    above.erase(it);
  }
}

sim::EventHandle MarketWatcher::schedule_hour_tick(ListenerId id, sim::SimTime at) {
  return clock_.at(at, [this, id] {
    Trigger trigger;
    trigger.kind = TriggerKind::kHourBoundary;
    deliver(id, trigger);
  });
}

void MarketWatcher::on_price_change(cloud::MarketIndex market, double new_price) {
  if (market >= markets_.size() || !markets_[market].subscribed) return;
  ++stats_.price_steps;
  const Book& book = markets_[market];
  // Recipients: every kAlways watcher plus the kAbove buckets whose edge
  // lies below the new price, sorted into watch order. The batch is private
  // to this step, so handlers may mutate the index reentrantly.
  std::vector<Entry> batch = std::move(spare_);
  batch.assign(book.always.begin(), book.always.end());
  for (const Bucket& bucket : book.above) {
    if (!(bucket.edge < new_price)) break;
    batch.insert(batch.end(), bucket.entries.begin(), bucket.entries.end());
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
