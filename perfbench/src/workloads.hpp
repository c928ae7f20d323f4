// The benchmark's three workloads and their measured runs.
//
//   fleet_month  — the baseline fleet: proactive bidding, homes round-robin
//                  over three small markets, tens of thousands of services.
//                  Price fan-out and the provider's per-step scan dominate.
//   fleet_mixed  — a few thousand services over all 16 markets: forecast
//                  bids, portfolio placement, light fault plan, product JSONL
//                  tracing. Placement, bidding, retries and the tracer work.
//   paper_sweep  — the paper's single-service arms over many seeds through
//                  metrics::SweepRunner on the shared pool. Fan-out is idle;
//                  trace generation, world construction and the pool carry it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spotbench {

/// The seed the reference digests were recorded with.
inline constexpr std::uint64_t kDefaultSeed = 20150615;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          ///< small sizes, runnable in seconds
  std::string reference_path;  ///< reference digests ("" = none)
  std::string spans_out;       ///< CSV of the traced run's spans ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Deterministic work counters: identical for a seed on any machine.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Run context: hardware, build, sizes, seed.
  std::vector<std::pair<std::string, std::string>> context;
  std::string digest;  ///< result digest of the first measured repetition
  std::vector<std::string> notes;  ///< human-readable report lines
};

/// Runs `opts.workload` for about `opts.seconds` and returns its metrics:
/// the end-to-end set untraced, the per-layer set traced. Throws
/// std::invalid_argument on an unknown workload.
[[nodiscard]] Result run_workload(const Options& opts);

}  // namespace spotbench
