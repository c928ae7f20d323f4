// Observation probes for the traced run. Everything here attaches to the
// library through public seams only — a decorating sim::Engine, a forwarding
// sim::Clock, SpotMarket price observers, PlacementPolicy / BidStrategy /
// TraceSink decorators — and only observes: a traced run must produce the
// same result digest as an untraced one.
//
// Spans are recorded into a SpanRecorder (one per simulated world, so one
// per thread): name, start, end and parent, kept in memory and written out
// when the benchmark ends. A layer's self time is its span duration minus
// the part covered by child spans.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <vector>

#include "obs/sink.hpp"
#include "sched/bidding.hpp"
#include "sched/placement.hpp"
#include "simcore/engine.hpp"
#include "simcore/simulation.hpp"

namespace spotbench {

enum class Layer : std::uint8_t {
  kWorldEvent,     ///< world-clock callback outside a price step's probe window
  kCloudStep,      ///< price-step event: start to the first probe observer
  kSchedFanout,    ///< price-step event: first probe to second (MarketWatcher)
  kSchedTimer,     ///< callback scheduled through the fleet's clock
  kPlacement,      ///< PlacementPolicy call
  kBidding,        ///< BidStrategy::bid_for call
  kObsSink,        ///< TraceSink::on_event
  kTraceGenerate,  ///< market-trace generation (or trace-cache lookup)
  kSetupWorld,     ///< World construction on pre-generated traces
  kSetupFleet,     ///< scheduler construction + start()
  kCloudFinalize,  ///< CloudProvider::finalize
  kMetrics,        ///< fleet / run metrics computation
  kCell,           ///< one sweep cell
  kCount
};

[[nodiscard]] std::string_view layer_name(Layer layer) noexcept;

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Nanoseconds on std::chrono::steady_clock.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
[[nodiscard]] double percentile(std::vector<double>& samples, double q);

/// Single-threaded span stack with self-time accounting.
class SpanRecorder {
 public:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = top level
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  /// Keeps at most `span_capacity` spans in memory; later spans are still
  /// accounted but not kept (dropped()).
  explicit SpanRecorder(std::size_t span_capacity) : capacity_(span_capacity) {}

  void enter(Layer layer) { enter_at(layer, now_ns()); }
  /// Closes the innermost span; returns its whole duration (all segments).
  std::int64_t leave() { return leave_at(now_ns()); }

  /// Price-step probes, subscribed on every SpotMarket: the first fires
  /// after the provider's revocation logic, the second after the
  /// MarketWatcher's fan-out. `watched` = the market has a watcher
  /// subscription, so the fan-out sample is meaningful.
  void probe_after_provider();
  void probe_after_watcher(bool watched);

  [[nodiscard]] std::int64_t self_ns(Layer layer) const noexcept {
    return self_[static_cast<std::size_t>(layer)];
  }
  /// Number of spans (segments) recorded for `layer`.
  [[nodiscard]] std::uint64_t count(Layer layer) const noexcept {
    return count_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const std::array<std::int64_t, kLayerCount>& self_all() const noexcept {
    return self_;
  }
  [[nodiscard]] std::uint64_t price_steps() const noexcept { return price_steps_; }
  /// Probe firings that did not find the expected open span (should be 0).
  [[nodiscard]] std::uint64_t probe_misses() const noexcept { return probe_misses_; }
  [[nodiscard]] const std::vector<double>& step_self_us() const noexcept { return step_us_; }
  [[nodiscard]] const std::vector<double>& fanout_us() const noexcept { return fanout_us_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  struct Frame {
    Layer layer;
    std::uint32_t seg_id;
    std::int64_t start;      ///< start of the whole span
    std::int64_t seg_start;  ///< start of the current segment
    std::int64_t child_ns;   ///< child time inside the current segment
  };

  void enter_at(Layer layer, std::int64_t t);
  std::int64_t leave_at(std::int64_t t);
  /// Closes the open frame's current segment at `t` as `closing_as` and
  /// continues the frame as `next`. Returns the closed segment's self time.
  std::int64_t split_at(std::int64_t t, Layer closing_as, Layer next);
  std::int64_t close_segment(const Frame& frame, Layer as, std::int64_t t);

  std::size_t capacity_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint32_t next_id_ = 1;
  std::array<std::int64_t, kLayerCount> self_{};
  std::array<std::uint64_t, kLayerCount> count_{};
  std::uint64_t price_steps_ = 0;
  std::uint64_t probe_misses_ = 0;
  std::vector<double> step_us_;
  std::vector<double> fanout_us_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, Layer layer) : rec_(rec) { rec_.enter(layer); }
  ~ScopedSpan() { rec_.leave(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
};

/// A sim::Engine that forwards to a sim::Simulation and wraps every callback
/// in a span: kWorldEvent for callbacks scheduled through the engine itself
/// (markets and the provider), or the layer of the TaggedClock that issued it.
class TracingEngine final : public spothost::sim::Engine {
 public:
  TracingEngine(SpanRecorder& rec, spothost::sim::QueueBackend backend)
      : rec_(rec), sim_(backend) {}

  [[nodiscard]] spothost::sim::SimTime now() const noexcept override {
    return sim_.now();
  }
  spothost::sim::EventHandle at(spothost::sim::SimTime when, Callback cb) override;
  spothost::sim::EventHandle after(spothost::sim::SimTime delay, Callback cb) override;
  bool cancel(spothost::sim::EventId id) override { return sim_.cancel(id); }
  void run_until(spothost::sim::SimTime horizon) override;
  [[nodiscard]] std::uint64_t dispatched() const noexcept override {
    return sim_.dispatched();
  }
  [[nodiscard]] std::size_t pending() const override { return sim_.pending(); }
  void set_tracer(spothost::obs::Tracer* tracer) noexcept override {
    sim_.set_tracer(tracer);
  }
  [[nodiscard]] spothost::obs::Tracer* tracer() const noexcept override {
    return sim_.tracer();
  }
  void set_fault_injector(spothost::faults::FaultInjector* injector) noexcept override {
    sim_.set_fault_injector(injector);
  }
  [[nodiscard]] spothost::faults::FaultInjector* fault_injector() const noexcept override {
    return sim_.fault_injector();
  }

  /// Schedules through the inner simulation with `layer`'s span wrapper;
  /// the handle cancels through `issuer`.
  spothost::sim::EventHandle schedule_at(spothost::sim::SimTime when, Callback cb,
                                         Layer layer, spothost::sim::Clock* issuer);
  spothost::sim::EventHandle schedule_after(spothost::sim::SimTime delay, Callback cb,
                                            Layer layer, spothost::sim::Clock* issuer);

  /// Wall time inside run_until, and the part of it no callback span covers.
  [[nodiscard]] std::int64_t run_ns() const noexcept { return run_ns_; }
  [[nodiscard]] std::int64_t queue_self_ns() const noexcept { return queue_self_ns_; }
  [[nodiscard]] std::size_t pending_peak() const noexcept { return pending_peak_; }

 private:
  Callback wrap(Callback cb, Layer layer);

  SpanRecorder& rec_;
  spothost::sim::Simulation sim_;
  std::int64_t callback_ns_ = 0;  ///< wall time inside wrapped callbacks
  std::int64_t run_ns_ = 0;
  std::int64_t queue_self_ns_ = 0;
  std::size_t pending_peak_ = 0;
};

/// The probes' own cost per dispatched event that falls outside every span
/// and so lands in TracingEngine::queue_self_ns(): calling the wrapper, the
/// outer halves of its two clock reads, the pending() check and freeing the
/// heap-allocated wrapper. Calibrated on empty callbacks as the traced
/// engine's queue self time minus a plain Simulation's run time over the
/// same events; the median over several rounds, in nanoseconds.
[[nodiscard]] double probe_queue_ns_per_event();

/// The clock handed to the scheduler layer: forwards to a TracingEngine but
/// tags its callbacks, so scheduler timers (hour ticks, migration
/// timelines, retries) are told apart from provider and market events.
class TaggedClock final : public spothost::sim::Clock {
 public:
  TaggedClock(TracingEngine& engine, Layer layer) : engine_(engine), layer_(layer) {}

  [[nodiscard]] spothost::sim::SimTime now() const noexcept override {
    return engine_.now();
  }
  spothost::sim::EventHandle at(spothost::sim::SimTime when, Callback cb) override {
    return engine_.schedule_at(when, std::move(cb), layer_, this);
  }
  spothost::sim::EventHandle after(spothost::sim::SimTime delay, Callback cb) override {
    return engine_.schedule_after(delay, std::move(cb), layer_, this);
  }
  bool cancel(spothost::sim::EventId id) override {
    const bool hit = engine_.cancel(id);
    if (hit) ++cancels_;
    return hit;
  }
  [[nodiscard]] spothost::obs::Tracer* tracer() const noexcept override {
    return engine_.tracer();
  }
  [[nodiscard]] spothost::faults::FaultInjector* fault_injector() const noexcept override {
    return engine_.fault_injector();
  }

  /// Pending events this clock cancelled.
  [[nodiscard]] std::uint64_t cancels() const noexcept { return cancels_; }

 private:
  TracingEngine& engine_;
  Layer layer_;
  std::uint64_t cancels_ = 0;
};

/// Times and counts every call into a placement policy.
class TimedPlacement final : public spothost::sched::PlacementPolicy {
 public:
  TimedPlacement(std::shared_ptr<const spothost::sched::PlacementPolicy> inner,
                 SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(&rec) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::vector<spothost::cloud::MarketId> watched_markets(
      const spothost::cloud::CloudProvider& provider,
      const spothost::sched::SchedulerConfig& config) const override;
  [[nodiscard]] std::optional<spothost::sched::Placement> choose_spot(
      const spothost::cloud::CloudProvider& provider,
      const spothost::sched::SchedulerConfig& config,
      const spothost::sched::PlacementQuery& query) const override;
  [[nodiscard]] spothost::sched::Placement choose_on_demand(
      const spothost::cloud::CloudProvider& provider,
      const spothost::sched::SchedulerConfig& config,
      const spothost::sched::PlacementQuery& query) const override;

 private:
  std::shared_ptr<const spothost::sched::PlacementPolicy> inner_;
  SpanRecorder* rec_;
};

/// Times and counts every bid.
class TimedBidding final : public spothost::sched::BidStrategy {
 public:
  TimedBidding(std::shared_ptr<const spothost::sched::BidStrategy> inner,
               SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(&rec) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] double bid_for(const spothost::cloud::CloudProvider& provider,
                               const spothost::sched::SchedulerConfig& config,
                               const spothost::cloud::MarketId& market,
                               spothost::sim::SimTime now) const override;
  [[nodiscard]] bool plans_migrations(
      const spothost::sched::SchedulerConfig& config) const noexcept override {
    return inner_->plans_migrations(config);
  }

 private:
  std::shared_ptr<const spothost::sched::BidStrategy> inner_;
  SpanRecorder* rec_;
};

/// Times every event delivered to a sink.
class TimedSink final : public spothost::obs::TraceSink {
 public:
  TimedSink(spothost::obs::TraceSink& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}
  void on_event(const spothost::obs::TraceEvent& event) override {
    ScopedSpan span(rec_, Layer::kObsSink);
    inner_.on_event(event);
  }
  void flush() override { inner_.flush(); }

 private:
  spothost::obs::TraceSink& inner_;
  SpanRecorder& rec_;
};

/// A discarding output stream that counts and hashes (FNV-1a) what is
/// written to it — the product JSONL sink's destination.
class CountingStream final : private std::streambuf, public std::ostream {
 public:
  CountingStream() : std::ostream(static_cast<std::streambuf*>(this)) {}
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::streambuf::int_type overflow(std::streambuf::int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

  std::uint64_t bytes_ = 0;
  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace spotbench
