#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace spotbench {

namespace sim = spothost::sim;
namespace sched = spothost::sched;
namespace cloud = spothost::cloud;

std::string_view layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kWorldEvent: return "cloud.other";
    case Layer::kCloudStep: return "cloud.step";
    case Layer::kSchedFanout: return "sched.fanout";
    case Layer::kSchedTimer: return "sched.timer";
    case Layer::kPlacement: return "placement";
    case Layer::kBidding: return "bidding";
    case Layer::kObsSink: return "obs.sink";
    case Layer::kTraceGenerate: return "trace.generate";
    case Layer::kSetupWorld: return "setup.world";
    case Layer::kSetupFleet: return "setup.fleet";
    case Layer::kCloudFinalize: return "cloud.finalize";
    case Layer::kMetrics: return "metrics";
    case Layer::kCell: return "exec.cell";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[index];
}

// --- SpanRecorder ----------------------------------------------------------

void SpanRecorder::enter_at(Layer layer, std::int64_t t) {
  stack_.push_back(Frame{layer, next_id_++, t, t, 0});
}

std::int64_t SpanRecorder::close_segment(const Frame& frame, Layer as,
                                         std::int64_t t) {
  const std::int64_t dur = t - frame.seg_start;
  const std::int64_t self = dur - frame.child_ns;
  self_[static_cast<std::size_t>(as)] += self;
  ++count_[static_cast<std::size_t>(as)];
  // The frame below (if any) is the parent: its current segment contains
  // this one.
  const std::size_t depth = stack_.size() - 1;
  std::uint32_t parent = 0;
  if (depth > 0) {
    Frame& up = stack_[depth - 1];
    up.child_ns += dur;
    parent = up.seg_id;
  }
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{frame.seg_id, parent, as, frame.seg_start, t});
  } else {
    ++dropped_;
  }
  return self;
}

std::int64_t SpanRecorder::leave_at(std::int64_t t) {
  const Frame frame = stack_.back();
  close_segment(frame, frame.layer, t);
  stack_.pop_back();
  return t - frame.start;
}

std::int64_t SpanRecorder::split_at(std::int64_t t, Layer closing_as, Layer next) {
  const std::int64_t self = close_segment(stack_.back(), closing_as, t);
  Frame& frame = stack_.back();
  frame.layer = next;
  frame.seg_id = next_id_++;
  frame.seg_start = t;
  frame.child_ns = 0;
  return self;
}

void SpanRecorder::probe_after_provider() {
  if (stack_.empty() || stack_.back().layer != Layer::kWorldEvent) {
    ++probe_misses_;
    return;
  }
  ++price_steps_;
  const std::int64_t self = split_at(now_ns(), Layer::kCloudStep, Layer::kSchedFanout);
  step_us_.push_back(static_cast<double>(self) / 1e3);
}

void SpanRecorder::probe_after_watcher(bool watched) {
  if (stack_.empty() || stack_.back().layer != Layer::kSchedFanout) {
    ++probe_misses_;
    return;
  }
  const std::int64_t self = split_at(now_ns(), Layer::kSchedFanout, Layer::kWorldEvent);
  if (watched) fanout_us_.push_back(static_cast<double>(self) / 1e3);
}

// --- TracingEngine ---------------------------------------------------------

sim::Callback TracingEngine::wrap(Callback cb, Layer layer) {
  return [this, layer, cb = std::move(cb)] {
    rec_.enter(layer);
    cb();
    callback_ns_ += rec_.leave();
    pending_peak_ = std::max(pending_peak_, sim_.pending());
  };
}

sim::EventHandle TracingEngine::schedule_at(sim::SimTime when, Callback cb,
                                            Layer layer, sim::Clock* issuer) {
  const sim::EventHandle h = sim_.at(when, wrap(std::move(cb), layer));
  return sim::EventHandle(issuer, h.id());
}

sim::EventHandle TracingEngine::schedule_after(sim::SimTime delay, Callback cb,
                                               Layer layer, sim::Clock* issuer) {
  const sim::EventHandle h = sim_.after(delay, wrap(std::move(cb), layer));
  return sim::EventHandle(issuer, h.id());
}

sim::EventHandle TracingEngine::at(sim::SimTime when, Callback cb) {
  return schedule_at(when, std::move(cb), Layer::kWorldEvent, this);
}

sim::EventHandle TracingEngine::after(sim::SimTime delay, Callback cb) {
  return schedule_after(delay, std::move(cb), Layer::kWorldEvent, this);
}

void TracingEngine::run_until(sim::SimTime horizon) {
  const std::int64_t inside_before = callback_ns_;
  const std::int64_t t0 = now_ns();
  sim_.run_until(horizon);
  const std::int64_t wall = now_ns() - t0;
  run_ns_ += wall;
  queue_self_ns_ += wall - (callback_ns_ - inside_before);
}

double probe_queue_ns_per_event() {
  constexpr int kEvents = 200000;
  constexpr int kRounds = 7;
  // The same small callback both ways, one event a minute of simulated time.
  std::uint64_t fired = 0;
  auto schedule_all = [&fired](sim::Engine& engine) {
    for (int i = 0; i < kEvents; ++i) {
      engine.at(static_cast<sim::SimTime>(i + 1) * sim::kMinute, [&fired] { ++fired; });
    }
  };
  const sim::SimTime horizon = static_cast<sim::SimTime>(kEvents + 1) * sim::kMinute;
  std::vector<double> per_event;
  for (int round = 0; round < kRounds; ++round) {
    sim::Simulation plain(sim::QueueBackend::kTimingWheel);
    schedule_all(plain);
    const std::int64_t t0 = now_ns();
    plain.run_until(horizon);
    const std::int64_t plain_ns = now_ns() - t0;

    SpanRecorder rec(0);
    TracingEngine traced(rec, sim::QueueBackend::kTimingWheel);
    schedule_all(traced);
    traced.run_until(horizon);
    per_event.push_back(static_cast<double>(traced.queue_self_ns() - plain_ns) / kEvents);
  }
  if (fired != 2ull * kRounds * kEvents) throw std::logic_error("probe calibration lost events");
  return percentile(per_event, 0.5);
}

// --- decorators ------------------------------------------------------------

std::vector<cloud::MarketId> TimedPlacement::watched_markets(
    const cloud::CloudProvider& provider, const sched::SchedulerConfig& config) const {
  ScopedSpan span(*rec_, Layer::kPlacement);
  return inner_->watched_markets(provider, config);
}

std::optional<sched::Placement> TimedPlacement::choose_spot(
    const cloud::CloudProvider& provider, const sched::SchedulerConfig& config,
    const sched::PlacementQuery& query) const {
  ScopedSpan span(*rec_, Layer::kPlacement);
  return inner_->choose_spot(provider, config, query);
}

sched::Placement TimedPlacement::choose_on_demand(
    const cloud::CloudProvider& provider, const sched::SchedulerConfig& config,
    const sched::PlacementQuery& query) const {
  ScopedSpan span(*rec_, Layer::kPlacement);
  return inner_->choose_on_demand(provider, config, query);
}

double TimedBidding::bid_for(const cloud::CloudProvider& provider,
                             const sched::SchedulerConfig& config,
                             const cloud::MarketId& market, sim::SimTime now) const {
  ScopedSpan span(*rec_, Layer::kBidding);
  return inner_->bid_for(provider, config, market, now);
}

// --- CountingStream --------------------------------------------------------

std::streambuf::int_type CountingStream::overflow(std::streambuf::int_type ch) {
  using traits = std::streambuf::traits_type;
  if (traits::eq_int_type(ch, traits::eof())) return traits::not_eof(ch);
  const char c = traits::to_char_type(ch);
  xsputn(&c, 1);
  return ch;
}

std::streamsize CountingStream::xsputn(const char* s, std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) {
    hash_ = (hash_ ^ static_cast<unsigned char>(s[i])) * 1099511628211ull;
  }
  bytes_ += static_cast<std::uint64_t>(n);
  return n;
}

}  // namespace spotbench
