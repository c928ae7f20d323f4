// Sweep execution engine, the one multi-seed runner: declare every
// configuration arm of a figure or ablation up front, then fan all
// (arm x seed) cells across the shared worker pool at once.
//
//   * The pool schedules arms*runs cells instead of draining between arms,
//     so worker threads stay busy across arm boundaries.
//   * Market traces are memoized: cells that share (scenario, seed) share
//     one generated MarketTraceSet (fig08 regenerates each region's traces
//     six times without this).
//   * run() takes one undeclared arm through the same cell and fan-out code,
//     so its aggregate is bit-identical to that arm's entry in run_all().
// Per-cell seeds come from run_seed and aggregation from aggregate_runs, so
// every printed table is byte-identical to serial execution.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "metrics/experiment.hpp"
#include "sched/market_traces.hpp"

namespace spothost::metrics {

/// One configuration arm: a label for reporting plus the (scenario, config)
/// pair to run under every seed.
struct SweepArm {
  std::string label;
  sched::Scenario scenario;
  sched::SchedulerConfig config;
};

class SweepRunner {
 public:
  explicit SweepRunner(int runs = 5, std::uint64_t base_seed = 9001,
                       Execution execution = Execution::kParallel);

  /// Declares an arm; returns its index into run_all()'s result vector.
  int add_arm(std::string label, sched::Scenario scenario,
              sched::SchedulerConfig config);

  [[nodiscard]] int arm_count() const noexcept {
    return static_cast<int>(arms_.size());
  }
  [[nodiscard]] const SweepArm& arm(int index) const {
    return arms_.at(static_cast<std::size_t>(index));
  }
  [[nodiscard]] int runs() const noexcept { return runs_; }
  [[nodiscard]] std::uint64_t seed_for(int run_index) const noexcept {
    return run_seed(base_seed_, run_index);
  }

  /// Runs every (arm x seed) cell — all at once on the shared pool under
  /// Execution::kParallel — and returns per-arm aggregates in add_arm
  /// order. Callable repeatedly; traces stay memoized across calls. If
  /// cells throw, every cell still finishes before the first error in
  /// (arm, seed) order is rethrown.
  [[nodiscard]] std::vector<AggregatedMetrics> run_all() const;

  /// Runs `config` against every seed of `scenario` without declaring an
  /// arm: same cells, trace cache and error handling as run_all().
  [[nodiscard]] AggregatedMetrics run(const sched::Scenario& scenario,
                                      const sched::SchedulerConfig& config) const;

  /// The cache backing this sweep's market-trace memoization.
  [[nodiscard]] const std::shared_ptr<sched::TraceCache>& trace_cache()
      const noexcept {
    return cache_;
  }

  /// The memoized trace set of `scenario` under seed_for(run_index) —
  /// a cache hit after run_all(). Lets benches derive trace statistics
  /// (price correlations, stddevs) without building another World.
  [[nodiscard]] std::shared_ptr<const sched::MarketTraceSet> traces_for(
      const sched::Scenario& scenario, int run_index = 0) const;

 private:
  /// Runs every (arm x seed) cell of `arms` and aggregates per arm.
  [[nodiscard]] std::vector<AggregatedMetrics> run_arms(
      std::span<const SweepArm> arms) const;

  int runs_;
  std::uint64_t base_seed_;
  Execution execution_;
  std::vector<SweepArm> arms_;
  std::shared_ptr<sched::TraceCache> cache_;
};

}  // namespace spothost::metrics
