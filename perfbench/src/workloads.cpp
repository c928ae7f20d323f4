#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <malloc.h>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <functional>
#include <utility>

#include "exec/thread_pool.hpp"
#include "metrics/experiment.hpp"
#include "metrics/sweep.hpp"
#include "obs/jsonl_sink.hpp"
#include "probes.hpp"
#include "sched/baselines.hpp"
#include "sched/config.hpp"
#include "sched/fleet.hpp"
#include "sched/market_selection.hpp"
#include "sched/market_traces.hpp"
#include "sched/policy_zoo.hpp"

namespace spotbench {
namespace {

using namespace spothost;

constexpr sim::SimTime kMonth = 30 * sim::kDay;
constexpr auto kQueue = sim::QueueBackend::kTimingWheel;
/// A run with one variant (the sweep, or any traced run) repeats it at least
/// this often, so every reported time is a median.
constexpr int kMinReps = 3;

// --- sizes -------------------------------------------------------------------

struct Sizes {
  int month_services;
  int month_variants;  ///< scenario seeds per untraced fleet_month run
  int mixed_services;
  int mixed_variants;  ///< scenario seeds per untraced fleet_mixed run
  int sweep_seeds;
};

// Full sizes keep one untraced fleet run near 25 s on a 4-thread x86 host:
// one repetition per scenario seed, and enough seeds that the seed-to-seed
// spread of a month's work (about 18% for one fleet_month seed) averages out.
Sizes sizes_for(bool smoke) {
  return smoke ? Sizes{300, 2, 48, 2, 2} : Sizes{10000, 12, 2500, 14, 40};
}

// --- digest ------------------------------------------------------------------

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void add_run_metrics(Digest& d, const metrics::RunMetrics& m) {
  for (double v : {m.total_cost, m.attributed_cost, m.baseline_od_cost,
                   m.normalized_cost_pct, m.unavailability_pct, m.downtime_s,
                   m.degraded_s, m.longest_outage_s, m.forced_per_hour,
                   m.planned_reverse_per_hour, m.horizon_hours}) {
    d.add(v);
  }
  for (int v : {m.outages, m.forced, m.planned, m.reverse, m.cancelled_planned,
                m.market_switches, m.faults_injected, m.retries, m.degraded_entries}) {
    d.add(v);
  }
}

void add_aggregate(Digest& d, const metrics::Aggregate& a) {
  d.add(a.mean);
  d.add(a.stddev);
  d.add(a.min);
  d.add(a.max);
}

// --- metric tables -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Per-layer metrics of the traced run, in output order. A name that a
// workload does not exercise reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"simcore.events", "count"},
    {"simcore.events_per_s", "1/s"},
    {"simcore.queue_self_s", "s"},
    {"simcore.pending_peak", "count"},
    {"cloud.price_steps", "count"},
    {"cloud.step_self_s", "s"},
    {"cloud.step_self_us.p50", "us"},
    {"cloud.step_self_us.p99", "us"},
    {"cloud.other_s", "s"},
    {"cloud.leases", "count"},
    {"cloud.revocations", "count"},
    {"cloud.finalize_s", "s"},
    {"sched.listeners", "count"},
    {"sched.fanout_s", "s"},
    {"sched.fanout_us.p50", "us"},
    {"sched.fanout_us.p99", "us"},
    {"sched.timer_events", "count"},
    {"sched.timer_cancels", "count"},
    {"sched.timer_self_s", "s"},
    {"sched.forced", "count"},
    {"sched.planned", "count"},
    {"sched.reverse", "count"},
    {"sched.planned_cancelled", "count"},
    {"sched.spot_request_failed", "count"},
    {"sched.retries", "count"},
    {"sched.degraded", "count"},
    {"placement.calls", "count"},
    {"placement.s", "s"},
    {"bidding.calls", "count"},
    {"bidding.s", "s"},
    {"trace.generate_s", "s"},
    {"trace.points", "count"},
    {"exec.threads", "count"},
    {"exec.cells", "count"},
    {"exec.cell_ms.p50", "ms"},
    {"exec.cell_ms.p99", "ms"},
    {"exec.busy_share", "%"},
    {"obs.events", "count"},
    {"obs.bytes", "B"},
    {"obs.sink_s", "s"},
    {"faults.injected", "count"},
    {"workload.outages", "count"},
    {"workload.unavail_pct", "%"},
    {"workload.any_down_pct", "%"},
    {"metrics.cost_pct", "%"},
    {"metrics.fleet_metrics_s", "s"},
    {"metrics.aggregate_s", "s"},
    {"setup.world_s", "s"},
    {"setup.fleet_s", "s"},
    {"run.wall_s", "s"},
    {"run.unattributed_s", "s"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.probe_ns_per_event", "ns"},
    {"bench.probe_queue_s", "s"},
};

/// One traced repetition's per-layer values, keyed by kLayerMetrics name.
class LayerValues {
 public:
  void set(const std::string& name, double value) {
    if (unit_of(name) == nullptr) throw std::logic_error("unknown layer metric " + name);
    values_[name] = value;
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  static const char* unit_of(const std::string& name) {
    for (const auto& def : kLayerMetrics) {
      if (name == def.name) return def.unit;
    }
    return nullptr;
  }

 private:
  std::map<std::string, double> values_;
};

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Resets the process's peak RSS to its current RSS (Linux 4.0+), so the
/// next VmHWM reading is the peak of what ran in between. Returns false
/// where the kernel does not support it.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// --- workload specs ----------------------------------------------------------

struct FleetSpec {
  sched::Scenario scenario;
  sched::FleetConfig config;
  bool product_sink = false;
};

FleetSpec fleet_month_spec(std::uint64_t seed, const Sizes& sz) {
  FleetSpec spec;
  spec.scenario.seed = seed;
  spec.scenario.horizon = kMonth;
  spec.scenario.regions = {"us-east-1a", "us-east-1b", "us-west-1a"};
  spec.scenario.shards = 1;
  spec.config.num_services = sz.month_services;
  spec.config.service_template =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  spec.config.home_markets = {{"us-east-1a", cloud::InstanceSize::kSmall},
                              {"us-east-1b", cloud::InstanceSize::kSmall},
                              {"us-west-1a", cloud::InstanceSize::kSmall}};
  return spec;
}

FleetSpec fleet_mixed_spec(std::uint64_t seed, const Sizes& sz) {
  FleetSpec spec;
  spec.scenario.seed = seed;
  spec.scenario.horizon = kMonth;
  spec.scenario.shards = 1;
  spec.scenario.fault_plan
      .with_rate(faults::FaultKind::kAllocInsufficientCapacity, 0.02)
      .with_rate(faults::FaultKind::kLiveCopyAbort, 0.05);
  const sched::Scenario full = sched::normalized_scenario(spec.scenario);
  sched::SchedulerConfig cfg =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiRegion;
  cfg.bidding = std::make_shared<const sched::ForecastBidPolicy>();
  cfg.placement = std::make_shared<const sched::PortfolioPlacementPolicy>();
  spec.config.service_template = cfg;
  spec.config.num_services = sz.mixed_services;
  spec.config.stagger_placement = true;
  for (const auto& region : full.regions) {
    for (const auto size : full.sizes) spec.config.home_markets.push_back({region, size});
  }
  spec.product_sink = true;
  return spec;
}

struct SweepSpec {
  int seeds = 0;
  std::uint64_t base_seed = 0;
  std::vector<metrics::SweepArm> arms;
};

SweepSpec paper_sweep_spec(std::uint64_t seed, const Sizes& sz) {
  SweepSpec spec;
  spec.seeds = sz.sweep_seeds;
  spec.base_seed = seed;
  sched::Scenario scenario;
  scenario.horizon = kMonth;
  scenario.shards = 1;
  const cloud::MarketId home{"us-east-1a", cloud::InstanceSize::kSmall};
  const std::pair<const char*, sched::MarketScope> scopes[] = {
      {"single-market", sched::MarketScope::kSingleMarket},
      {"multi-market", sched::MarketScope::kMultiMarket},
      {"multi-region", sched::MarketScope::kMultiRegion}};
  for (const bool proactive : {true, false}) {
    for (const auto& [label, scope] : scopes) {
      sched::SchedulerConfig cfg =
          proactive ? sched::proactive_config(home) : sched::reactive_config(home);
      cfg.scope = scope;
      spec.arms.push_back({std::string(proactive ? "proactive/" : "reactive/") + label,
                           scenario, cfg});
    }
  }
  spec.arms.push_back({"pure-spot", scenario, sched::pure_spot_config(home)});
  return spec;
}

// --- fleet runs --------------------------------------------------------------

/// What one fleet repetition produced, and whether it is right.
struct FleetOutcome {
  sched::FleetMetrics m;
  std::string digest;
  std::vector<std::string> violations;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

void add_violation(std::vector<std::string>& out, bool ok, const std::string& what) {
  if (!ok) out.push_back(what);
}

/// Digest, invariants and deterministic counters of a finished fleet run.
void collect_fleet(const sched::World& world, const sched::FleetScheduler& fleet,
                   std::uint64_t events, const obs::JsonlSink& jsonl,
                   const CountingStream& stream, FleetOutcome& out) {
  const auto& m = out.m;
  const auto& ledger = world.provider().ledger();
  double ledger_sum = 0.0;
  std::uint64_t revocations = 0;
  for (const auto& r : ledger.records()) {
    ledger_sum += r.cost;
    if (r.cause == cloud::TerminationCause::kProviderRevoked) ++revocations;
  }
  sched::SchedulerStats sum;
  std::uint64_t outages = 0;
  Digest d;
  for (double v : {m.total_cost, m.attributed_cost, m.baseline_od_cost,
                   m.normalized_cost_pct, m.mean_unavailability_pct,
                   m.worst_unavailability_pct, m.any_down_pct, ledger.total_cost()}) {
    d.add(v);
  }
  for (int v : {m.services, m.max_concurrent_down, m.total_forced, m.total_planned,
                m.total_reverse}) {
    d.add(v);
  }
  bool service_range_ok = true;
  for (int i = 0; i < fleet.size(); ++i) {
    const auto& avail = fleet.service(i).availability();
    const std::uint64_t n = avail.outage_count();
    outages += n;
    d.add(n);
    const double u = avail.unavailability_percent();
    service_range_ok = service_range_ok && u >= 0.0 && u <= 100.0;
    const auto s = fleet.scheduler(i).stats();
    sum.forced += s.forced;
    sum.planned += s.planned;
    sum.reverse += s.reverse;
    sum.cancelled_planned += s.cancelled_planned;
    sum.spot_request_failures += s.spot_request_failures;
    sum.retries += s.retries;
    sum.degraded_entries += s.degraded_entries;
  }
  const std::uint64_t faults = world.faults().injected_total();
  for (std::uint64_t v : {events, static_cast<std::uint64_t>(ledger.records().size()),
                          revocations, faults, jsonl.events_written(), stream.bytes(),
                          stream.hash()}) {
    d.add(v);
  }
  for (int v : {sum.cancelled_planned, sum.spot_request_failures, sum.retries,
                sum.degraded_entries}) {
    d.add(v);
  }
  out.digest = d.hex();

  auto& bad = out.violations;
  const double tol = 1e-9 * std::max(1.0, std::abs(ledger_sum));
  add_violation(bad, std::abs(ledger_sum - ledger.total_cost()) <= tol,
                "ledger records do not sum to the ledger total");
  add_violation(bad, std::abs(ledger_sum - m.total_cost) <= tol,
                "ledger records do not sum to total_cost");
  add_violation(bad, m.attributed_cost <= m.total_cost + tol,
                "attributed_cost exceeds total_cost");
  add_violation(bad, service_range_ok, "a service's unavailability is outside [0, 100]");
  add_violation(bad,
                m.mean_unavailability_pct >= 0.0 && m.mean_unavailability_pct <= 100.0,
                "mean unavailability outside [0, 100]");
  add_violation(bad, m.any_down_pct <= 100.0 && m.any_down_pct >= m.mean_unavailability_pct - 1e-9,
                "any_down_pct below the per-service mean or above 100");
  add_violation(bad, m.normalized_cost_pct > 0.0, "normalized cost is not positive");

  out.counters = {
      {"simcore.events", events},
      {"cloud.leases", ledger.records().size()},
      {"cloud.revocations", revocations},
      {"sched.listeners", fleet.watcher().listener_count()},
      {"sched.forced", static_cast<std::uint64_t>(sum.forced)},
      {"sched.planned", static_cast<std::uint64_t>(sum.planned)},
      {"sched.reverse", static_cast<std::uint64_t>(sum.reverse)},
      {"sched.planned_cancelled", static_cast<std::uint64_t>(sum.cancelled_planned)},
      {"sched.spot_request_failed", static_cast<std::uint64_t>(sum.spot_request_failures)},
      {"sched.retries", static_cast<std::uint64_t>(sum.retries)},
      {"sched.degraded", static_cast<std::uint64_t>(sum.degraded_entries)},
      {"obs.events", jsonl.events_written()},
      {"obs.bytes", stream.bytes()},
      {"faults.injected", faults},
      {"workload.outages", outages},
  };
}

/// The measured configuration: the library's fleet wiring
/// (metrics::run_fleet_scenario) with set-up and run phases timed apart.
FleetOutcome fleet_rep(const FleetSpec& spec) {
  FleetOutcome out;
  CountingStream stream;
  obs::JsonlSink jsonl(stream);
  obs::Tracer tracer;
  if (spec.product_sink) tracer.add_sink(&jsonl);

  const std::int64_t t0 = now_ns();
  sched::World world(spec.scenario, nullptr, std::make_unique<sim::Simulation>(kQueue));
  if (spec.product_sink) world.engine().set_tracer(&tracer);
  sched::FleetScheduler fleet(world.clock(), world.provider(), spec.config, world.rng());
  fleet.start();
  const std::int64_t t1 = now_ns();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
  tracer.flush();
  out.m = fleet.metrics(world.horizon());
  const std::int64_t t2 = now_ns();

  out.setup_s = ns_to_s(t1 - t0);
  out.run_s = ns_to_s(t2 - t1);
  collect_fleet(world, fleet, world.engine().dispatched(), jsonl, stream, out);
  return out;
}

/// Subscribes `probe` on every market of `world`, after every observer
/// already there.
template <typename Probe>
void subscribe_probes(sched::World& world, Probe probe) {
  for (const auto& id : world.provider().all_markets()) {
    auto& market = world.provider().market(id);
    // Observers so far: the provider, the first probe, and — when the
    // market is watched — the MarketWatcher.
    const bool watched = market.observer_count() > 2;
    market.subscribe([probe, watched](const cloud::SpotMarket&, double) { probe(watched); });
  }
}

/// What the probes of one or more traced worlds saw (a sweep sums its
/// cells).
struct WorldTrace {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> count{};
  std::vector<double> step_us;
  std::vector<double> fanout_us;
  std::uint64_t price_steps = 0;
  std::uint64_t probe_misses = 0;
  std::uint64_t events = 0;
  std::int64_t run_ns = 0;
  std::int64_t queue_self_ns = 0;
  std::size_t pending_peak = 0;
  std::uint64_t timer_cancels = 0;
  std::uint64_t trace_points = 0;
  std::uint64_t listeners = 0;
  std::uint64_t leases = 0;
  std::uint64_t revocations = 0;

  [[nodiscard]] double self_s(Layer l) const {
    return ns_to_s(self_ns[static_cast<std::size_t>(l)]);
  }
  [[nodiscard]] double calls(Layer l) const {
    return static_cast<double>(count[static_cast<std::size_t>(l)]);
  }

  void add(const WorldTrace& o) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      self_ns[l] += o.self_ns[l];
      count[l] += o.count[l];
    }
    step_us.insert(step_us.end(), o.step_us.begin(), o.step_us.end());
    fanout_us.insert(fanout_us.end(), o.fanout_us.begin(), o.fanout_us.end());
    price_steps += o.price_steps;
    probe_misses += o.probe_misses;
    events += o.events;
    run_ns += o.run_ns;
    queue_self_ns += o.queue_self_ns;
    pending_peak = std::max(pending_peak, o.pending_peak);
    timer_cancels += o.timer_cancels;
    trace_points += o.trace_points;
    listeners += o.listeners;
    leases += o.leases;
    revocations += o.revocations;
  }
};

std::uint64_t trace_points(const sched::MarketTraceSet& traces) {
  std::uint64_t n = 0;
  for (const auto& entry : traces.markets()) n += entry.prices.size();
  return n;
}

/// What the probes saw of one finished traced world.
WorldTrace observe_world(const SpanRecorder& rec, const TracingEngine& engine,
                         const TaggedClock& sched_clock, const sched::World& world,
                         std::uint64_t listeners) {
  WorldTrace t;
  t.self_ns = rec.self_all();
  for (std::size_t l = 0; l < kLayerCount; ++l) t.count[l] = rec.count(static_cast<Layer>(l));
  t.step_us = rec.step_self_us();
  t.fanout_us = rec.fanout_us();
  t.price_steps = rec.price_steps();
  t.probe_misses = rec.probe_misses();
  t.events = engine.dispatched();
  t.run_ns = engine.run_ns();
  t.queue_self_ns = engine.queue_self_ns();
  t.pending_peak = engine.pending_peak();
  t.timer_cancels = sched_clock.cancels();
  t.trace_points = trace_points(*world.trace_set());
  t.listeners = listeners;
  for (const auto& r : world.provider().ledger().records()) {
    ++t.leases;
    if (r.cause == cloud::TerminationCause::kProviderRevoked) ++t.revocations;
  }
  return t;
}

/// The per-layer values every workload reports from its traced worlds.
void fill_layers(LayerValues& lv, WorldTrace& t) {
  lv.set("simcore.events", static_cast<double>(t.events));
  lv.set("simcore.events_per_s", static_cast<double>(t.events) / ns_to_s(t.run_ns));
  lv.set("simcore.queue_self_s", ns_to_s(t.queue_self_ns));
  lv.set("simcore.pending_peak", static_cast<double>(t.pending_peak));
  lv.set("cloud.price_steps", static_cast<double>(t.price_steps));
  lv.set("cloud.step_self_s", t.self_s(Layer::kCloudStep));
  lv.set("cloud.step_self_us.p50", percentile(t.step_us, 0.50));
  lv.set("cloud.step_self_us.p99", percentile(t.step_us, 0.99));
  lv.set("cloud.other_s", t.self_s(Layer::kWorldEvent));
  lv.set("cloud.leases", static_cast<double>(t.leases));
  lv.set("cloud.revocations", static_cast<double>(t.revocations));
  lv.set("cloud.finalize_s", t.self_s(Layer::kCloudFinalize));
  lv.set("sched.listeners", static_cast<double>(t.listeners));
  lv.set("sched.fanout_s", t.self_s(Layer::kSchedFanout));
  lv.set("sched.fanout_us.p50", percentile(t.fanout_us, 0.50));
  lv.set("sched.fanout_us.p99", percentile(t.fanout_us, 0.99));
  lv.set("sched.timer_events", t.calls(Layer::kSchedTimer));
  lv.set("sched.timer_cancels", static_cast<double>(t.timer_cancels));
  lv.set("sched.timer_self_s", t.self_s(Layer::kSchedTimer));
  lv.set("placement.calls", t.calls(Layer::kPlacement));
  lv.set("placement.s", t.self_s(Layer::kPlacement));
  lv.set("bidding.calls", t.calls(Layer::kBidding));
  lv.set("bidding.s", t.self_s(Layer::kBidding));
  lv.set("trace.generate_s", t.self_s(Layer::kTraceGenerate));
  lv.set("trace.points", static_cast<double>(t.trace_points));
  lv.set("obs.sink_s", t.self_s(Layer::kObsSink));
  lv.set("setup.world_s", t.self_s(Layer::kSetupWorld));
  lv.set("setup.fleet_s", t.self_s(Layer::kSetupFleet));
  lv.set("metrics.fleet_metrics_s", t.self_s(Layer::kMetrics));
}

/// Layers whose self time falls inside the run phase.
constexpr Layer kRunLayers[] = {Layer::kCloudStep,  Layer::kWorldEvent,
                                Layer::kSchedFanout, Layer::kSchedTimer,
                                Layer::kPlacement,  Layer::kBidding,
                                Layer::kObsSink,    Layer::kCloudFinalize,
                                Layer::kMetrics};

void write_spans(const std::string& path, const std::vector<SpanRecorder::Span>& spans,
                 std::uint64_t dropped) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "id,parent,layer,start_ns,end_ns\n";
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& s : spans) {
    out << s.id << ',' << s.parent << ',' << layer_name(s.layer) << ','
        << s.start_ns - base << ',' << s.end_ns - base << '\n';
  }
  if (dropped > 0) out << "# " << dropped << " later spans not kept\n";
}

/// The traced repetition: same wiring as fleet_rep over probes.
FleetOutcome fleet_rep_traced(const FleetSpec& spec, LayerValues& lv,
                              const std::string& spans_out) {
  FleetOutcome out;
  SpanRecorder rec(spans_out.empty() ? 0 : (1u << 20));
  CountingStream stream;
  obs::JsonlSink jsonl(stream);
  TimedSink timed_sink(jsonl, rec);
  obs::Tracer tracer;
  if (spec.product_sink) tracer.add_sink(&timed_sink);

  const std::int64_t t0 = now_ns();
  std::shared_ptr<const sched::MarketTraceSet> traces;
  {
    ScopedSpan span(rec, Layer::kTraceGenerate);
    traces = sched::MarketTraceSet::generate(sched::normalized_scenario(spec.scenario));
  }
  auto engine_owner = std::make_unique<TracingEngine>(rec, kQueue);
  TracingEngine& engine = *engine_owner;
  rec.enter(Layer::kSetupWorld);
  sched::World world(spec.scenario, traces, std::move(engine_owner));
  rec.leave();
  subscribe_probes(world, [&rec](bool) { rec.probe_after_provider(); });
  if (spec.product_sink) world.engine().set_tracer(&tracer);

  TaggedClock sched_clock(engine, Layer::kSchedTimer);
  sched::FleetConfig cfg = spec.config;
  auto& tmpl = cfg.service_template;
  tmpl.placement = std::make_shared<const TimedPlacement>(sched::placement_policy_for(tmpl), rec);
  tmpl.bidding = std::make_shared<const TimedBidding>(sched::bid_strategy_for(tmpl), rec);
  rec.enter(Layer::kSetupFleet);
  sched::FleetScheduler fleet(sched_clock, world.provider(), cfg, world.rng());
  fleet.start();
  rec.leave();
  subscribe_probes(world, [&rec](bool watched) { rec.probe_after_watcher(watched); });

  const auto self_before = rec.self_all();
  const std::int64_t t1 = now_ns();
  engine.run_until(world.horizon());
  {
    ScopedSpan span(rec, Layer::kCloudFinalize);
    world.provider().finalize(world.horizon());
  }
  fleet.finalize(world.horizon());
  tracer.flush();
  {
    ScopedSpan span(rec, Layer::kMetrics);
    out.m = fleet.metrics(world.horizon());
  }
  const std::int64_t t2 = now_ns();

  out.setup_s = ns_to_s(t1 - t0);
  out.run_s = ns_to_s(t2 - t1);
  collect_fleet(world, fleet, engine.dispatched(), jsonl, stream, out);
  WorldTrace t = observe_world(rec, engine, sched_clock, world, fleet.watcher().listener_count());
  if (t.probe_misses > 0) {
    out.violations.push_back("price-step probes fired outside a market event");
  }

  for (const auto& [name, value] : out.counters) lv.set(name, static_cast<double>(value));
  fill_layers(lv, t);
  lv.set("workload.unavail_pct", out.m.mean_unavailability_pct);
  lv.set("workload.any_down_pct", out.m.any_down_pct);
  lv.set("metrics.cost_pct", out.m.normalized_cost_pct);
  std::int64_t attributed = engine.queue_self_ns();
  for (const Layer l : kRunLayers) {
    attributed += rec.self_ns(l) - self_before[static_cast<std::size_t>(l)];
  }
  lv.set("run.wall_s", ns_to_s(t2 - t1));
  lv.set("run.unattributed_s", ns_to_s((t2 - t1) - attributed));
  write_spans(spans_out, rec.spans(), rec.dropped());
  return out;
}

// --- sweep runs --------------------------------------------------------------

struct SweepOutcome {
  std::vector<metrics::AggregatedMetrics> arms;
  std::string digest;
  std::uint64_t bad_cells = 0;
  std::vector<std::string> violations;
  double setup_s = 0.0;
  double run_s = 0.0;
  double cost_pct = 0.0;
  double unavail_pct = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

std::string run_metrics_digest(const metrics::RunMetrics& m) {
  Digest d;
  add_run_metrics(d, m);
  return d.hex();
}

void collect_sweep(SweepOutcome& out) {
  Digest d;
  double cost = 0.0;
  double unavail = 0.0;
  std::uint64_t cells = 0;
  sched::SchedulerStats sum;
  std::uint64_t outages = 0;
  std::uint64_t faults = 0;
  for (const auto& arm : out.arms) {
    for (const auto* a : {&arm.normalized_cost_pct, &arm.unavailability_pct,
                          &arm.forced_per_hour, &arm.planned_reverse_per_hour,
                          &arm.downtime_s, &arm.cancelled_planned}) {
      add_aggregate(d, *a);
    }
    d.add(arm.runs);
    for (const auto& m : arm.per_run) {
      add_run_metrics(d, m);
      ++cells;
      cost += m.normalized_cost_pct;
      unavail += m.unavailability_pct;
      const double tol = 1e-9 * std::max(1.0, m.total_cost);
      const bool ok = m.unavailability_pct >= 0.0 && m.unavailability_pct <= 100.0 &&
                      m.normalized_cost_pct > 0.0 && m.attributed_cost <= m.total_cost + tol;
      if (!ok) ++out.bad_cells;
      sum.forced += m.forced;
      sum.planned += m.planned;
      sum.reverse += m.reverse;
      sum.cancelled_planned += m.cancelled_planned;
      sum.retries += m.retries;
      sum.degraded_entries += m.degraded_entries;
      outages += static_cast<std::uint64_t>(m.outages);
      faults += static_cast<std::uint64_t>(m.faults_injected);
    }
  }
  out.digest = d.hex();
  if (out.bad_cells > 0) {
    out.violations.push_back(std::to_string(out.bad_cells) +
                             " cells break a cost or availability invariant");
  }
  out.cost_pct = cost / static_cast<double>(cells);
  out.unavail_pct = unavail / static_cast<double>(cells);
  out.counters = {
      {"exec.cells", cells},
      {"sched.forced", static_cast<std::uint64_t>(sum.forced)},
      {"sched.planned", static_cast<std::uint64_t>(sum.planned)},
      {"sched.reverse", static_cast<std::uint64_t>(sum.reverse)},
      {"sched.planned_cancelled", static_cast<std::uint64_t>(sum.cancelled_planned)},
      {"sched.retries", static_cast<std::uint64_t>(sum.retries)},
      {"sched.degraded", static_cast<std::uint64_t>(sum.degraded_entries)},
      {"faults.injected", faults},
      {"workload.outages", outages},
  };
}

std::unique_ptr<metrics::SweepRunner> declare_sweep(const SweepSpec& spec) {
  auto runner = std::make_unique<metrics::SweepRunner>(spec.seeds, spec.base_seed,
                                                       metrics::Execution::kParallel);
  for (const auto& arm : spec.arms) runner->add_arm(arm.label, arm.scenario, arm.config);
  return runner;
}

/// Set-up of a sweep: arm declaration plus pool start-up (a private pool of
/// the shared pool's size; the shared one starts once per process). Cheap,
/// so it is sampled several times and the median kept.
double sweep_setup_s(const SweepSpec& spec) {
  const std::size_t threads = exec::ThreadPool::shared().thread_count();
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    const std::int64_t t0 = now_ns();
    auto runner = declare_sweep(spec);
    auto pool = std::make_unique<exec::ThreadPool>(threads);
    const std::int64_t t1 = now_ns();
    samples.push_back(ns_to_s(t1 - t0));
  }
  return median(samples);
}

SweepOutcome sweep_rep(const SweepSpec& spec) {
  SweepOutcome out;
  out.setup_s = sweep_setup_s(spec);
  const auto runner = declare_sweep(spec);
  const std::int64_t t1 = now_ns();
  out.arms = runner->run_all();
  const std::int64_t t2 = now_ns();
  out.run_s = ns_to_s(t2 - t1);
  collect_sweep(out);
  return out;
}

/// Recomputes one sampled cell per arm serially through
/// metrics::run_hosting_scenario; every one must match the sweep bit for bit.
int sweep_sample_mismatches(const SweepSpec& spec, const SweepOutcome& out,
                            std::vector<std::string>& notes) {
  const auto runner = declare_sweep(spec);
  int bad = 0;
  for (int a = 0; a < runner->arm_count(); ++a) {
    const int i = static_cast<int>((spec.base_seed + static_cast<std::uint64_t>(a)) %
                                   static_cast<std::uint64_t>(spec.seeds));
    sched::Scenario s = runner->arm(a).scenario;
    s.seed = runner->seed_for(i);
    const auto serial = metrics::run_hosting_scenario(s, runner->arm(a).config);
    const auto& parallel =
        out.arms[static_cast<std::size_t>(a)].per_run[static_cast<std::size_t>(i)];
    if (run_metrics_digest(serial) != run_metrics_digest(parallel)) {
      ++bad;
      notes.push_back("serial recompute of " + runner->arm(a).label + " seed index " +
                      std::to_string(i) + " differs from the sweep");
    }
  }
  return bad;
}

/// One traced sweep cell: run_hosting_scenario's wiring over probes.
struct TracedCell {
  metrics::RunMetrics metrics;
  WorldTrace trace;
  std::vector<SpanRecorder::Span> spans;
  std::uint64_t dropped_spans = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

void traced_cell(const metrics::SweepRunner& runner, int arm, int index,
                 std::size_t span_capacity, TracedCell& c) {
  SpanRecorder rec(span_capacity);
  c.start_ns = now_ns();
  rec.enter(Layer::kCell);
  sched::Scenario s = runner.arm(arm).scenario;
  s.seed = runner.seed_for(index);
  std::shared_ptr<const sched::MarketTraceSet> traces;
  {
    ScopedSpan span(rec, Layer::kTraceGenerate);
    traces = runner.trace_cache()->get(s);
  }
  auto engine_owner = std::make_unique<TracingEngine>(rec, kQueue);
  TracingEngine& engine = *engine_owner;
  rec.enter(Layer::kSetupWorld);
  sched::World world(s, traces, std::move(engine_owner));
  rec.leave();
  subscribe_probes(world, [&rec](bool) { rec.probe_after_provider(); });

  sched::SchedulerConfig config = runner.arm(arm).config;
  config.placement =
      std::make_shared<const TimedPlacement>(sched::placement_policy_for(config), rec);
  config.bidding = std::make_shared<const TimedBidding>(sched::bid_strategy_for(config), rec);
  TaggedClock sched_clock(engine, Layer::kSchedTimer);
  rec.enter(Layer::kSetupFleet);
  workload::AlwaysOnService service("hosted-service", virt::VmSpec{});
  sched::CloudScheduler scheduler(sched_clock, world.provider(), service, config,
                                  world.stream("scheduler-timing"));
  scheduler.start();
  rec.leave();
  subscribe_probes(world, [&rec](bool watched) { rec.probe_after_watcher(watched); });

  engine.run_until(world.horizon());
  {
    ScopedSpan span(rec, Layer::kCloudFinalize);
    world.provider().finalize(world.horizon());
  }
  scheduler.finalize(world.horizon());
  {
    ScopedSpan span(rec, Layer::kMetrics);
    // Normalization baseline exactly as metrics::run_hosting_scenario has it.
    double baseline = sched::effective_on_demand_price(
        world.provider(), config.home_market.region, config.home_market.size);
    if (config.scope == sched::MarketScope::kMultiRegion) {
      const auto& regions = config.allowed_regions.empty() ? world.provider().regions()
                                                           : config.allowed_regions;
      const std::string cheapest = sched::cheapest_on_demand_region(
          world.provider(), regions, config.home_market.size);
      baseline = sched::effective_on_demand_price(world.provider(), cheapest,
                                                  config.home_market.size);
    }
    c.metrics = metrics::compute_run_metrics(world.provider(), scheduler, service,
                                             world.horizon(), baseline);
    c.metrics.faults_injected = static_cast<int>(world.faults().injected_total());
  }
  rec.leave();
  c.end_ns = now_ns();

  c.trace = observe_world(rec, engine, sched_clock, world, scheduler.watcher().listener_count());
  c.spans = rec.spans();
  c.dropped_spans = rec.dropped();
}

SweepOutcome sweep_rep_traced(const SweepSpec& spec, LayerValues& lv,
                              const std::string& spans_out) {
  SweepOutcome out;
  out.setup_s = sweep_setup_s(spec);
  const auto runner = declare_sweep(spec);
  const std::size_t n_arms = spec.arms.size();
  const std::size_t n_runs = static_cast<std::size_t>(spec.seeds);
  std::vector<TracedCell> cells(n_arms * n_runs);
  auto& pool = exec::ThreadPool::shared();

  // The fan-out of SweepRunner::run_all, one traced cell per pool task.
  const std::int64_t t1 = now_ns();
  std::vector<std::future<void>> futures;
  futures.reserve(cells.size());
  for (std::size_t a = 0; a < n_arms; ++a) {
    for (std::size_t i = 0; i < n_runs; ++i) {
      const std::size_t span_capacity = (a == 0 && i == 0 && !spans_out.empty()) ? (1u << 20) : 0;
      futures.push_back(pool.submit([&runner, &cells, a, i, n_runs, span_capacity] {
        traced_cell(*runner, static_cast<int>(a), static_cast<int>(i), span_capacity,
                    cells[a * n_runs + i]);
      }));
    }
  }
  for (auto& f : futures) f.get();
  const std::int64_t t_cells = now_ns();
  for (std::size_t a = 0; a < n_arms; ++a) {
    std::vector<metrics::RunMetrics> results;
    for (std::size_t i = 0; i < n_runs; ++i) results.push_back(cells[a * n_runs + i].metrics);
    out.arms.push_back(metrics::aggregate_runs(std::move(results)));
  }
  const std::int64_t t2 = now_ns();
  out.run_s = ns_to_s(t2 - t1);
  collect_sweep(out);

  WorldTrace t;
  std::vector<double> cell_ms;
  std::int64_t cell_sum = 0;
  for (const auto& c : cells) {
    t.add(c.trace);
    cell_ms.push_back(static_cast<double>(c.end_ns - c.start_ns) / 1e6);
    cell_sum += c.end_ns - c.start_ns;
  }
  if (t.probe_misses > 0) {
    out.violations.push_back("price-step probes fired outside a market event");
  }
  for (const auto& [name, value] : out.counters) lv.set(name, static_cast<double>(value));
  fill_layers(lv, t);
  const double threads = static_cast<double>(pool.thread_count());
  lv.set("exec.threads", threads);
  lv.set("exec.cells", static_cast<double>(cells.size()));
  lv.set("exec.cell_ms.p50", percentile(cell_ms, 0.50));
  lv.set("exec.cell_ms.p99", percentile(cell_ms, 0.99));
  lv.set("exec.busy_share", 100.0 * ns_to_s(cell_sum) / (threads * ns_to_s(t_cells - t1)));
  lv.set("metrics.aggregate_s", ns_to_s(t2 - t_cells));
  lv.set("workload.unavail_pct", out.unavail_pct);
  lv.set("workload.any_down_pct", out.unavail_pct);
  lv.set("metrics.cost_pct", out.cost_pct);
  // The run phase of a sweep is the sum of its cells (thread-seconds); what
  // no named layer claims inside a cell is its own self time.
  lv.set("run.wall_s", ns_to_s(cell_sum));
  lv.set("run.unattributed_s", t.self_s(Layer::kCell) - ns_to_s(t.queue_self_ns));
  write_spans(spans_out, cells.front().spans, cells.front().dropped_spans);
  return out;
}

// --- reference digests -------------------------------------------------------

/// Looks up the recorded digest for (workload, size, seed) in `path`:
/// lines "<workload> <full|smoke> <seed> <digest>", '#' comments.
std::optional<std::string> reference_digest(const std::string& path,
                                            const std::string& workload, bool smoke,
                                            std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, size, digest;
    std::uint64_t s = 0;
    if (!(fields >> w >> size >> s >> digest)) continue;
    if (w == workload && size == (smoke ? "smoke" : "full") && s == seed) return digest;
  }
  return std::nullopt;
}

// --- the measured loop -------------------------------------------------------

struct Rep {
  int variant = 0;
  std::string digest;
  std::vector<std::string> violations;
  double setup_s = 0.0;
  double run_s = 0.0;
  double service_months = 0.0;
  double cost_pct = 0.0;
  double unavail_pct = 0.0;
  double any_down_pct = 0.0;
  std::uint64_t ops = 1;  ///< runs (fleets) or cells (sweep) in this rep
  std::uint64_t bad_ops = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// A workload measured over `variants()` scenario seeds derived from the
/// run's seed (variant 0 is the seed itself), so one run's figures average
/// over several price histories instead of resting on one.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual int variants() const = 0;
  virtual Rep run(int variant, bool traced, LayerValues* lv,
                  const std::string& spans_out) = 0;
  virtual void describe(Result& r) const = 0;
};

class FleetWorkload final : public Workload {
 public:
  /// One spec per variant.
  explicit FleetWorkload(std::vector<FleetSpec> specs) : specs_(std::move(specs)) {}

  [[nodiscard]] int variants() const override { return static_cast<int>(specs_.size()); }

  Rep run(int variant, bool traced, LayerValues* lv, const std::string& spans_out) override {
    const FleetSpec& spec = specs_[static_cast<std::size_t>(variant)];
    const FleetOutcome o = traced ? fleet_rep_traced(spec, *lv, spans_out) : fleet_rep(spec);
    Rep rep;
    rep.variant = variant;
    rep.digest = o.digest;
    rep.violations = o.violations;
    rep.bad_ops = o.violations.empty() ? 0 : 1;
    rep.setup_s = o.setup_s;
    rep.run_s = o.run_s;
    rep.service_months = o.m.services * static_cast<double>(spec.scenario.horizon) /
                         static_cast<double>(kMonth);
    rep.cost_pct = o.m.normalized_cost_pct;
    rep.unavail_pct = o.m.mean_unavailability_pct;
    rep.any_down_pct = o.m.any_down_pct;
    rep.counters = o.counters;
    return rep;
  }

  void describe(Result& r) const override {
    const FleetSpec& spec = specs_.front();
    r.context.emplace_back("services", std::to_string(spec.config.num_services));
    r.context.emplace_back("scenario_seeds_per_run", std::to_string(specs_.size()));
    r.context.emplace_back(
        "markets_watched_per_service",
        spec.config.service_template.scope == sched::MarketScope::kSingleMarket ? "1"
                                                                                : "all");
    r.context.emplace_back("horizon_days", std::to_string(spec.scenario.horizon / sim::kDay));
    r.context.emplace_back("product_jsonl_sink", spec.product_sink ? "on" : "off");
  }

 private:
  std::vector<FleetSpec> specs_;
};

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(SweepSpec spec) : spec_(std::move(spec)) {}

  /// A sweep already spans many seeds per arm.
  [[nodiscard]] int variants() const override { return 1; }

  Rep run(int, bool traced, LayerValues* lv, const std::string& spans_out) override {
    SweepOutcome o = traced ? sweep_rep_traced(spec_, *lv, spans_out) : sweep_rep(spec_);
    // Once per process, outside the timed phase.
    int mismatches = 0;
    if (!traced && !audited_) {
      audited_ = true;
      mismatches = sweep_sample_mismatches(spec_, o, o.violations);
    }
    Rep rep;
    rep.digest = o.digest;
    rep.violations = o.violations;
    rep.ops = static_cast<std::uint64_t>(spec_.arms.size()) *
              static_cast<std::uint64_t>(spec_.seeds);
    rep.bad_ops = o.bad_cells + static_cast<std::uint64_t>(mismatches);
    rep.setup_s = o.setup_s;
    rep.run_s = o.run_s;
    rep.service_months = static_cast<double>(rep.ops);
    rep.cost_pct = o.cost_pct;
    rep.unavail_pct = o.unavail_pct;
    // Every cell is a world of one service: any-down equals its own
    // unavailability.
    rep.any_down_pct = o.unavail_pct;
    rep.counters = o.counters;
    return rep;
  }

  void describe(Result& r) const override {
    r.context.emplace_back("arms", std::to_string(spec_.arms.size()));
    r.context.emplace_back("seeds_per_arm", std::to_string(spec_.seeds));
    r.context.emplace_back("horizon_days", std::to_string(kMonth / sim::kDay));
  }

 private:
  SweepSpec spec_;
  bool audited_ = false;
};

std::unique_ptr<Workload> make_workload(const Options& opts) {
  const Sizes sz = sizes_for(opts.smoke);
  // The traced run studies one price history, the run's own seed, so its
  // counters repeat exactly for that seed.
  auto fleet = [&](FleetSpec (*make)(std::uint64_t, const Sizes&), int untraced_variants) {
    const int variants = opts.trace ? 1 : untraced_variants;
    std::vector<FleetSpec> specs;
    for (int k = 0; k < variants; ++k) specs.push_back(make(metrics::run_seed(opts.seed, k), sz));
    return std::make_unique<FleetWorkload>(std::move(specs));
  };
  if (opts.workload == "fleet_month") return fleet(fleet_month_spec, sz.month_variants);
  if (opts.workload == "fleet_mixed") return fleet(fleet_mixed_spec, sz.mixed_variants);
  if (opts.workload == "paper_sweep") {
    return std::make_unique<SweepWorkload>(paper_sweep_spec(opts.seed, sz));
  }
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

std::string fmt(double v, const char* spec = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// The traced run's report: where the run phase went, and whether the
/// predictions written down before measuring held on this workload.
void layer_report(const std::string& workload, const LayerValues& lv, Result& r) {
  const double wall = lv.get("run.wall_s");
  const std::pair<const char*, const char*> rows[] = {
      {"simcore (queue self, probe cost removed)", "simcore.queue_self_s"},
      {"probes (calibrated cost outside spans)", "bench.probe_queue_s"},
      {"cloud (price step to first probe)", "cloud.step_self_s"},
      {"cloud (other provider/market events)", "cloud.other_s"},
      {"sched (watcher fan-out)", "sched.fanout_s"},
      {"sched (timers)", "sched.timer_self_s"},
      {"placement", "placement.s"},
      {"bidding", "bidding.s"},
      {"obs (sink)", "obs.sink_s"},
      {"cloud (finalize)", "cloud.finalize_s"},
      {"metrics", "metrics.fleet_metrics_s"},
      {"trace (generation, in cells)", "trace.generate_s"},
      {"setup (world, in cells)", "setup.world_s"},
      {"setup (scheduler, in cells)", "setup.fleet_s"},
      {"unattributed", "run.unattributed_s"},
  };
  const bool sweep = workload == "paper_sweep";
  r.notes.push_back("run phase " + fmt(wall) + " s" +
                    (sweep ? " (sum over cells, thread-seconds)" : "") + ":");
  for (const auto& [label, key] : rows) {
    const bool in_cells = std::string(label).find("in cells") != std::string::npos;
    if (in_cells && !sweep) continue;
    const double v = lv.get(key);
    r.notes.push_back("  " + std::string(label) + ": " + fmt(v, "%.4f") + " s (" +
                      fmt(wall > 0 ? 100.0 * v / wall : 0.0, "%.1f") + "%)");
  }
  auto share = [&](const char* key) { return wall > 0 ? lv.get(key) / wall : 0.0; };
  const double step_fanout = share("cloud.step_self_s") + share("sched.fanout_s");
  double largest_other = 0.0;
  for (const char* key : {"simcore.queue_self_s", "cloud.other_s", "sched.timer_self_s",
                          "placement.s", "bidding.s", "obs.sink_s", "cloud.finalize_s",
                          "metrics.fleet_metrics_s", "trace.generate_s", "setup.world_s",
                          "setup.fleet_s", "run.unattributed_s"}) {
    largest_other = std::max(largest_other, share(key));
  }
  auto verdict = [&](bool held, const std::string& what) {
    r.notes.push_back(std::string("prediction ") + (held ? "HELD" : "FAILED") + ": " + what);
  };
  const double pb = share("placement.s") + share("bidding.s");
  if (workload == "fleet_month") {
    verdict(step_fanout > largest_other,
            "cloud.step_self_s + sched.fanout_s is the largest share (" +
                fmt(100 * step_fanout, "%.1f") + "% vs next " +
                fmt(100 * largest_other, "%.1f") + "%)");
    verdict(lv.get("obs.sink_s") == 0.0, "obs.sink_s is zero (product tracing off)");
    verdict(pb < 0.01, "placement.s + bidding.s about zero (" + fmt(100 * pb, "%.2f") + "%)");
  } else if (workload == "fleet_mixed") {
    verdict(share("obs.sink_s") >= 0.01,
            "obs.sink_s visible (" + fmt(100 * share("obs.sink_s"), "%.1f") + "%)");
    verdict(pb >= 0.01, "placement.s + bidding.s visible (" + fmt(100 * pb, "%.1f") + "%)");
  } else {
    verdict(step_fanout < 0.05, "cloud.step_self_s + sched.fanout_s near zero (" +
                                    fmt(100 * step_fanout, "%.1f") + "%)");
    verdict(lv.get("obs.sink_s") == 0.0, "obs.sink_s is zero");
    verdict(pb < 0.01, "placement.s + bidding.s not visible (" + fmt(100 * pb, "%.2f") + "%)");
  }
  // The probes' calibrated cost outside spans is removed from queue self
  // time. Where that cost is larger than what is left, the share rests on
  // the calibration more than on the program, and the note says so.
  const double queue = share("simcore.queue_self_s");
  const double probes = share("bench.probe_queue_s");
  r.notes.push_back("simcore.queue_self_s share: " + fmt(100 * queue, "%.1f") +
                    "% with the probes' calibrated cost removed (" +
                    fmt(lv.get("bench.probe_ns_per_event"), "%.0f") + " ns per event, " +
                    fmt(100 * probes, "%.1f") + "%; " + fmt(100 * (queue + probes), "%.1f") +
                    "% before); predicted larger on paper_sweep than on the fleets" +
                    (probes > queue ? " — unresolved: the probe cost exceeds the share" : ""));
}

}  // namespace

Result run_workload(const Options& opts) {
  auto workload = make_workload(opts);
  Result r;
  r.context = {
      {"workload", opts.workload},
      {"size", opts.smoke ? "smoke" : "full"},
      {"seed", std::to_string(opts.seed)},
      {"trace", opts.trace ? "1" : "0"},
      {"hardware_threads", std::to_string(std::thread::hardware_concurrency())},
      {"pool_threads", std::to_string(exec::ThreadPool::shared().thread_count())},
      {"build_type", SPOTBENCH_BUILD_TYPE},
      {"compiler", SPOTBENCH_COMPILER},
      {"queue_backend", "wheel"},
      {"shards", "1"},
  };
  workload->describe(r);

  std::optional<std::string> expected;
  bool reference_missing = false;
  if (!opts.reference_path.empty()) {
    expected = reference_digest(opts.reference_path, opts.workload, opts.smoke, opts.seed);
    reference_missing = !expected && opts.seed == kDefaultSeed;
  }

  // Measured once, before the timed loop, so it costs no run any time.
  const double probe_ns = opts.trace ? probe_queue_ns_per_event() : 0.0;

  const int variants = workload->variants();
  std::vector<std::optional<std::string>> first_digest(static_cast<std::size_t>(variants));
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<LayerValues> layers;
  auto failed_rep = [&](Rep& rep, const std::string& why) {
    rep.bad_ops = rep.ops;
    r.notes.push_back(why);
  };
  auto record = [&](Rep rep, bool was_traced, bool measured) {
    const char* kind = !measured ? "repeat-check" : was_traced ? "traced" : "untraced";
    for (const auto& v : rep.violations) r.notes.push_back("check failed: " + v);
    auto& first = first_digest[static_cast<std::size_t>(rep.variant)];
    if (!first) {
      first = rep.digest;
      if (rep.variant == 0) {
        r.digest = rep.digest;
        if (expected && *expected != rep.digest) {
          failed_rep(rep, "result digest " + rep.digest + " differs from the reference " +
                              *expected);
        }
        if (reference_missing) failed_rep(rep, "no reference digest recorded for this seed");
      }
    } else if (rep.digest != *first) {
      failed_rep(rep, std::string(kind) + " repetition digest " + rep.digest +
                          " differs from " + *first);
    }
    r.notes.push_back(std::string(kind) + " repetition, variant " + std::to_string(rep.variant) +
                      ": setup " + fmt(rep.setup_s, "%.4f") + " s, run " +
                      fmt(rep.run_s, "%.4f") + " s");
    r.attempted += rep.ops;
    r.failed += std::min(rep.bad_ops, rep.ops);
    if (measured) (was_traced ? traced : plain).push_back(std::move(rep));
  };
  // Peak RSS per repetition: the freed heap of the previous one goes back to
  // the system and the kernel's high-water mark restarts from there.
  bool peak_per_rep = true;
  std::vector<double> peaks;
  auto attempt = [&](int variant, bool was_traced, bool measured = true) {
    LayerValues lv;
    malloc_trim(0);
    peak_per_rep = reset_peak_rss() && peak_per_rep;
    try {
      Rep rep = workload->run(variant, was_traced, &lv,
                              was_traced ? opts.spans_out : std::string());
      if (!was_traced && measured) peaks.push_back(peak_rss_mb());
      record(std::move(rep), was_traced, measured);
      if (was_traced) layers.push_back(std::move(lv));
    } catch (const std::exception& e) {
      r.notes.push_back(std::string("repetition threw: ") + e.what());
      ++r.attempted;
      ++r.failed;
    }
  };
  // A round runs every variant once; untraced repetitions give the
  // end-to-end numbers, and the traced run interleaves a traced repetition
  // after each untraced one so the tracing overhead is measured under the
  // same conditions. Rounds stop before one would end past the deadline. A
  // round over several variants is already a median's worth of samples.
  const int min_rounds = variants > 1 ? 1 : kMinReps;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(opts.seconds * 1e9);
  for (int rounds = 1; r.failed == 0; ++rounds) {
    for (int v = 0; v < variants; ++v) {
      attempt(v, false);
      if (opts.trace) attempt(v, true);
    }
    const std::int64_t now = now_ns();
    if (rounds >= min_rounds && now + (now - start) / rounds > deadline) break;
  }
  // When every variant ran only once, variant 0 runs once more after the
  // timed loop and outside every figure, so its digest is still checked for
  // repeating.
  const bool repeated = std::count_if(plain.begin(), plain.end(),
                                      [](const Rep& x) { return x.variant == 0; }) > 1;
  if (r.failed == 0 && !repeated) attempt(0, false, false);

  // Throughput over the variants: each variant's median run time, summed.
  auto smps = [variants](const std::vector<Rep>& xs) {
    double months = 0.0;
    double seconds = 0.0;
    for (int v = 0; v < variants; ++v) {
      std::vector<double> runs;
      for (const auto& x : xs) {
        if (x.variant != v) continue;
        runs.push_back(x.run_s);
        if (runs.size() == 1) months += x.service_months;
      }
      seconds += median(runs);
    }
    return seconds > 0.0 ? months / seconds : 0.0;
  };
  if (!plain.empty()) r.counters = plain.front().counters;
  r.context.emplace_back("peak_rss", peak_per_rep ? "median of per-repetition VmHWM"
                                                   : "process VmHWM");

  if (!opts.trace) {
    std::vector<double> setups;
    for (const auto& x : plain) setups.push_back(x.setup_s);
    double cost = 0.0, unavail = 0.0, any_down = 0.0;
    for (int v = 0; v < variants; ++v) {
      const auto it = std::find_if(plain.begin(), plain.end(),
                                   [v](const Rep& x) { return x.variant == v; });
      if (it == plain.end()) continue;
      cost += it->cost_pct / variants;
      unavail += it->unavail_pct / variants;
      any_down += it->any_down_pct / variants;
    }
    const double ok_pct =
        r.attempted == 0 ? 0.0
                         : 100.0 * static_cast<double>(r.attempted - r.failed) /
                               static_cast<double>(r.attempted);
    r.metrics = {
        {"service_months_per_s", smps(plain), "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_per_rep ? median(peaks) : peak_rss_mb(), "MB"},
        {"cost_pct", cost, "%"},
        {"avail_pct", 100.0 - unavail, "%"},
        {"all_up_pct", 100.0 - any_down, "%"},
        {"ops_ok_pct", ok_pct, "%"},
    };
  } else {
    // Per-layer values: counts must repeat exactly across traced
    // repetitions; times are medians.
    LayerValues out;
    for (const auto& def : kLayerMetrics) {
      std::vector<double> xs;
      for (const auto& lv : layers) xs.push_back(lv.get(def.name));
      if (std::string(def.unit) == "count" &&
          std::adjacent_find(xs.begin(), xs.end(), std::not_equal_to<>()) != xs.end()) {
        r.notes.push_back(std::string("counter ") + def.name +
                          " differs across traced repetitions");
        ++r.failed;
      }
      out.set(def.name, median(xs));
    }
    if (!plain.empty() && !traced.empty()) {
      out.set("bench.trace_overhead_pct", 100.0 * (smps(plain) / smps(traced) - 1.0));
    }
    // Queue self time is reported without the probes' own cost per event.
    const double probe_s = out.get("simcore.events") * probe_ns / 1e9;
    out.set("bench.probe_ns_per_event", probe_ns);
    out.set("bench.probe_queue_s", probe_s);
    out.set("simcore.queue_self_s", out.get("simcore.queue_self_s") - probe_s);
    for (const auto& def : kLayerMetrics) {
      r.metrics.push_back({def.name, out.get(def.name), def.unit});
      if (std::string(def.unit) == "count") {
        const auto it = std::find_if(r.counters.begin(), r.counters.end(),
                                     [&](const auto& c) { return c.first == def.name; });
        const auto v = static_cast<std::uint64_t>(out.get(def.name));
        if (it == r.counters.end()) {
          r.counters.emplace_back(def.name, v);
        } else if (it->second != v) {
          r.notes.push_back(std::string("counter ") + def.name +
                            " differs between traced and untraced repetitions");
          ++r.failed;
        }
      }
    }
    if (!layers.empty()) layer_report(opts.workload, out, r);
  }
  r.correct = r.failed == 0;
  return r;
}

}  // namespace spotbench
