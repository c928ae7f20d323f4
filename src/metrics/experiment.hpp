// Experiment harness: runs one hosting scenario end to end, and aggregates
// per-seed metrics. Multi-seed runs go through metrics::SweepRunner
// (sweep.hpp), which fans cells out over the shared worker pool.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "obs/profile.hpp"
#include "sched/baselines.hpp"
#include "sched/config.hpp"
#include "sched/fleet.hpp"
#include "sched/market_traces.hpp"

namespace spothost::obs {
class Tracer;  // obs/sink.hpp
}

namespace spothost::metrics {

/// One simulated month of hosting under `config` inside a world built from
/// `scenario` (the scenario's seed is used as-is; the runner varies it).
///  * non-null `traces`: the world is built on this pre-generated
///    MarketTraceSet for this exact scenario (see sched::TraceCache) instead
///    of regenerating every market trace; results are identical either way;
///  * non-null `tracer`: attached to the world's simulation and service for
///    the duration of the run (and flushed afterwards);
///  * non-null `profile`: receives wall-clock dispatch throughput.
RunMetrics run_hosting_scenario(
    const sched::Scenario& scenario, const sched::SchedulerConfig& config,
    std::shared_ptr<const sched::MarketTraceSet> traces = nullptr,
    obs::Tracer* tracer = nullptr, obs::RunProfile* profile = nullptr);

/// One simulated month of FLEET hosting: `config.num_services` services in
/// one world, sharing a MarketWatcher, run serially on the world's engine.
/// A non-null `tracer` observes the run; a non-null `profile` records
/// dispatch throughput.
sched::FleetMetrics run_fleet_scenario(const sched::Scenario& scenario,
                                       const sched::FleetConfig& config,
                                       obs::Tracer* tracer = nullptr,
                                       obs::RunProfile* profile = nullptr);

struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Single-pass Welford moments (plus min/max) over the samples.
  static Aggregate of(std::span<const double> xs);
};

/// How SweepRunner schedules its (arm x seed) cells.
enum class Execution {
  kSerial,    ///< one run after another, on the calling thread
  kParallel,  ///< shared exec::ThreadPool workers; results stay in seed order
};

std::string_view to_string(Execution execution) noexcept;

struct AggregatedMetrics {
  Aggregate normalized_cost_pct;
  Aggregate unavailability_pct;
  Aggregate forced_per_hour;
  Aggregate planned_reverse_per_hour;
  Aggregate downtime_s;
  Aggregate cancelled_planned;
  int runs = 0;
  std::vector<RunMetrics> per_run;  ///< in seed order
};

/// Aggregates per-run metrics (in seed order) into the struct above — the
/// one aggregation path, shared by SweepRunner and perfbench's traced
/// sweep, so their tables are bit-identical.
[[nodiscard]] AggregatedMetrics aggregate_runs(std::vector<RunMetrics> results);

/// The seed of run `index` under `base_seed` — every runner derives per-run
/// seeds exactly this way, so memoized traces and printed tables line up
/// across harnesses.
[[nodiscard]] constexpr std::uint64_t run_seed(std::uint64_t base_seed,
                                               int index) noexcept {
  return base_seed + static_cast<std::uint64_t>(index) * 7919u;
}

}  // namespace spothost::metrics
