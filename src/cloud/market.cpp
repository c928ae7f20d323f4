#include "cloud/market.hpp"

#include <stdexcept>
#include <vector>

#include "trace/stats.hpp"

namespace spothost::cloud {

SpotMarket::SpotMarket(sim::Clock& clock, MarketId id,
                       trace::PriceTrace price_trace, double on_demand_price_per_hour,
                       MarketIndex index)
    : clock_(clock),
      id_(std::move(id)),
      index_(index),
      trace_(std::move(price_trace)),
      on_demand_price_(on_demand_price_per_hour) {
  if (trace_.empty()) {
    throw std::invalid_argument("SpotMarket: empty price trace for " + id_.str());
  }
  if (on_demand_price_ <= 0) {
    throw std::invalid_argument("SpotMarket: on-demand price must be > 0");
  }
}

SpotMarket::SpotMarket(sim::Clock& clock, MarketId id,
                       double on_demand_price_per_hour, MarketIndex index)
    : clock_(clock),
      id_(std::move(id)),
      index_(index),
      on_demand_price_(on_demand_price_per_hour),
      push_fed_(true) {
  if (on_demand_price_ <= 0) {
    throw std::invalid_argument("SpotMarket: on-demand price must be > 0");
  }
}

double SpotMarket::price() const {
  const sim::SimTime now = clock_.now();
  if (push_fed_) {
    if (!primed_) {
      throw std::logic_error("SpotMarket::price: live market " + id_.str() +
                             " has no price yet (feed not primed)");
    }
    // A staged update takes effect at its timestamp even before its commit
    // callback runs — this is what makes push-fed price() right-continuous
    // like trace mode's price_at (same-millisecond queries included).
    if (staged_ && now >= staged_at_) return staged_price_;
    return live_price_;
  }
  // Clamp to the trace window so queries exactly at the horizon still answer.
  const sim::SimTime t = std::min(std::max(now, trace_.start()), trace_.end() - 1);
  return trace_.price_at(t, trace_cursor_);
}

double SpotMarket::price_stddev(sim::SimTime from, sim::SimTime to) const {
  StddevMemo& memo = stddev_memo_;
  if (!memo.valid || memo.from != from || memo.to != to) {
    memo.value = trace::trace_stddev(trace_, from, to, memo.cursor);
    memo.from = from;
    memo.to = to;
    memo.valid = true;
  }
  return memo.value;
}

const trace::PriceTrace& SpotMarket::billable_trace(sim::SimTime through) {
  if (push_fed_ && trace_.end() < through) {
    trace_.set_end(through);
    stddev_memo_.valid = false;
  }
  return trace_;
}

SpotMarket::SubscriptionId SpotMarket::subscribe(PriceObserver observer) {
  const SubscriptionId sid = next_subscription_++;
  observers_.emplace(sid, Subscription{nullptr, std::move(observer)});
  return sid;
}

SpotMarket::SubscriptionId SpotMarket::subscribe(PriceListener* listener) {
  if (listener == nullptr) {
    throw std::invalid_argument("SpotMarket::subscribe: null listener");
  }
  const SubscriptionId sid = next_subscription_++;
  observers_.emplace(sid, Subscription{listener, nullptr});
  return sid;
}

void SpotMarket::unsubscribe(SubscriptionId id) {
  observers_.erase(id);
}

void SpotMarket::start() {
  if (started_) throw std::logic_error("SpotMarket::start called twice");
  started_ = true;
  if (push_fed_) return;  // the feed driver drives a push-fed market
  schedule_next(clock_.now());
}

void SpotMarket::prime(double price) {
  if (!push_fed_) {
    throw std::logic_error("SpotMarket::prime: trace-fed market " + id_.str());
  }
  if (primed_) {
    throw std::logic_error("SpotMarket::prime: already primed " + id_.str());
  }
  primed_ = true;
  live_price_ = price;
  trace_.append(clock_.now(), price);
  stddev_memo_.valid = false;
}

void SpotMarket::stage(sim::SimTime at, double price) {
  if (!push_fed_) {
    throw std::logic_error("SpotMarket::stage: trace-fed market " + id_.str());
  }
  if (!primed_) {
    throw std::logic_error("SpotMarket::stage: prime() first " + id_.str());
  }
  if (staged_) {
    throw std::logic_error("SpotMarket::stage: update already staged " + id_.str());
  }
  if (at < clock_.now()) {
    throw std::invalid_argument("SpotMarket::stage: staging in the past " +
                                id_.str());
  }
  staged_ = true;
  staged_at_ = at;
  staged_price_ = price;
}

void SpotMarket::commit_staged() {
  if (!staged_) {
    throw std::logic_error("SpotMarket::commit_staged: nothing staged " +
                           id_.str());
  }
  staged_ = false;
  const bool changed = staged_price_ != live_price_;
  live_price_ = staged_price_;
  // Record for billing. Two updates inside one millisecond collapse to one
  // point with the later price (append requires strictly increasing times).
  const sim::SimTime at = clock_.now();
  if (!trace_.empty() && at <= trace_.points().back().time) {
    trace_.amend_last(staged_price_);
  } else {
    trace_.append(at, staged_price_);
  }
  stddev_memo_.valid = false;
  // A repeated price is not a price step: trace mode never dispatches one
  // either, because PriceTrace::append merges equal consecutive prices.
  if (changed) dispatch(staged_price_);
}

void SpotMarket::push_price(double price) {
  stage(clock_.now(), price);
  commit_staged();
}

void SpotMarket::schedule_next(sim::SimTime after_time) {
  const auto next = trace_.next_change_after(after_time, trace_cursor_);
  if (!next) return;
  clock_.at(next->time, [this, point = *next] {
    dispatch(point.price);
    schedule_next(point.time);
  });
}

void SpotMarket::dispatch(double new_price) {
  // Snapshot ids, not observer functions: a callback may (un)subscribe
  // reentrantly, and ids are stable where map iterators are not. The buffer
  // is a reused member, so steady-state price steps do not allocate.
  dispatch_ids_.clear();
  for (const auto& [sid, obs] : observers_) dispatch_ids_.push_back(sid);
  for (const SubscriptionId sid : dispatch_ids_) {
    const auto it = observers_.find(sid);
    if (it == observers_.end()) continue;  // unsubscribed mid-dispatch
    if (it->second.listener != nullptr) {
      it->second.listener->on_price(*this, new_price);
    } else {
      it->second.fn(*this, new_price);
    }
  }
}

}  // namespace spothost::cloud
