// Fleet-scale benchmark, in two parts.
//
// Real fleet month: the perfbench fleet_month shape (proactive services,
// homes round-robin over the small markets of three regions, 30 days, seed
// 20150615) through the whole stack -- World -> MarketWatcher ->
// CloudScheduler -> MigrationEngine -> provider/billing -- at 1k and 10k
// services in smoke mode and 100k otherwise. Each size runs in a forked
// child, so the VmHWM it reports is that run's own. Reported: set-up time
// (world, fleet construction and start), run wall time (the month, finalize
// and metrics), peak RSS, normalized cost and mean unavailability.
//
// Event core: how many scheduler events per second the simulation core
// sustains as the fleet grows 1k -> 1M services, per queue backend (timing
// wheel vs binary heap).
//
// The workload is the fleet pattern distilled: every service keeps a
// periodic hour-tick chain alive (schedule-next-inside-the-callback, the
// MarketWatcher::schedule_hour_tick shape), and every tick schedules a poll
// event of which half are cancelled before firing (the planned-migration
// cancel churn in CloudScheduler). Services are staggered across a few
// hundred launch cohorts but share the billing period, so events arrive in
// synchronized same-millisecond bursts — the shape real fleets produce
// (billing hours align to launch waves, planned migrations to market price
// steps), and the shape the batched trigger fan-out exists for.
//
// Output: human tables on stdout plus BENCH_fleet.json (schema 4) in the
// working directory. events_per_sec counts FIRED events against the
// wall-clock time of the run loop (setup excluded); rss_mb samples VmRSS
// while the queue still holds the fleet's pending events, peak_rss_mb is
// the process-wide VmHWM high-water mark (monotone across arms — sizes run
// ascending so each arm's peak is its own). hardware_threads records the
// machine the numbers were taken on.
//
// Knobs: SPOTHOST_RUNS=1 selects the CI smoke sizes; SPOTHOST_FLEET_EVENTS
// overrides the ~per-arm fired-event budget.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace spothost;

constexpr sim::SimTime kPeriod = sim::kHour;

struct Service {
  std::uint32_t ticks_done = 0;
  sim::EventHandle tick;
  sim::EventHandle poll;
};

// N services running periodic tick chains with poll-and-cancel churn.
class SyntheticFleet {
 public:
  // Launch waves: services within a cohort share their tick millisecond,
  // and all cohorts share the billing period, so the bursts persist.
  static constexpr std::size_t kCohorts = 512;

  SyntheticFleet(sim::Clock& clock, std::size_t n, std::uint32_t ticks_each)
      : clock_(clock), ticks_each_(ticks_each), services_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      services_[i].tick = clock_.at(1 + cohort(i), [this, i] { on_tick(i); });
    }
  }

  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

  [[nodiscard]] sim::SimTime horizon() const noexcept {
    return static_cast<sim::SimTime>(ticks_each_ + 3) * kPeriod;
  }

 private:
  static sim::SimTime cohort(std::size_t i) noexcept {
    return static_cast<sim::SimTime>((i * 2654435761u) % kCohorts);
  }

  void on_tick(std::size_t i) {
    Service& svc = services_[i];
    ++fired_;
    // Half the polls are cancelled while pending (poll delay exceeds one
    // period, so the previous tick's poll is still live here); the other
    // half fire and count. Deterministic parity, no RNG in the hot loop.
    if (((svc.ticks_done ^ i) & 1u) == 0) svc.poll.cancel();
    // Polls land on the cohort grid shortly after the next tick burst —
    // planned-migration checks align to the same hour/price-step boundaries
    // the ticks do.
    const auto poll_delay = kPeriod + 1 + 2 * cohort(i) +
                            static_cast<sim::SimTime>(i & 1u);
    svc.poll = clock_.after(poll_delay, [this, i] {
      ++fired_;
      services_[i].poll.reset();
    });
    if (++svc.ticks_done < ticks_each_) {
      svc.tick = clock_.after(kPeriod, [this, i] { on_tick(i); });
    }
  }

  sim::Clock& clock_;
  std::uint32_t ticks_each_;
  std::vector<Service> services_;
  std::uint64_t fired_ = 0;
};

/// /proc/self/status field in kB -> MB (0.0 when unavailable).
double proc_status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

// --- real fleet month -------------------------------------------------------

/// Trivially copyable: a child process sends it back through a pipe.
struct FleetMonthResult {
  int services = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  double cost_pct = 0.0;
  double unavail_pct = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

FleetMonthResult run_fleet_month(int services) {
  const cloud::MarketId homes[] = {{"us-east-1a", cloud::InstanceSize::kSmall},
                                   {"us-east-1b", cloud::InstanceSize::kSmall},
                                   {"us-west-1a", cloud::InstanceSize::kSmall}};
  sched::Scenario scenario;
  scenario.seed = bench::kBaseSeed;
  scenario.horizon = 30 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b", "us-west-1a"};
  sched::FleetConfig config;
  config.num_services = services;
  config.service_template = sched::proactive_config(homes[0]);
  config.home_markets.assign(std::begin(homes), std::end(homes));

  const auto t0 = std::chrono::steady_clock::now();
  sched::World world(scenario);
  sched::FleetScheduler fleet(world.clock(), world.provider(), config, world.rng());
  fleet.start();
  FleetMonthResult r;
  r.services = services;
  r.setup_s = seconds_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
  const sched::FleetMetrics m = fleet.metrics(world.horizon());
  r.run_s = seconds_since(t1);
  r.peak_rss_mb = proc_status_mb("VmHWM:");
  r.cost_pct = m.normalized_cost_pct;
  r.unavail_pct = m.mean_unavailability_pct;
  return r;
}

/// run_fleet_month in a forked child, so the process-wide VmHWM the child
/// reads is this run's alone. Call before the event-core arms, while the
/// parent is small: a child starts with its parent's resident pages.
std::optional<FleetMonthResult> run_fleet_month_isolated(int services) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    try {
      const FleetMonthResult r = run_fleet_month(services);
      const bool sent = write(fds[1], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
      _exit(sent ? 0 : 1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_fleet_scale: %s\n", e.what());
      _exit(1);
    }
  }
  close(fds[1]);
  FleetMonthResult r;
  const ssize_t got = read(fds[0], &r, sizeof r);
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      got != static_cast<ssize_t>(sizeof r)) {
    return std::nullopt;
  }
  return r;
}

// --- event core --------------------------------------------------------------

struct ArmResult {
  std::string backend;
  std::size_t services = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
};

std::uint32_t ticks_for_budget(std::size_t n, std::uint64_t event_budget) {
  // ticks_each * n * 1.5 fired events ~= the budget, floor of 2 so every
  // service exercises the reschedule path at least once.
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(
      2, event_budget / std::max<std::uint64_t>(1, n + n / 2)));
}

ArmResult run_arm(sim::QueueBackend backend, std::size_t n,
                  std::uint64_t event_budget) {
  sim::Simulation s(backend);
  SyntheticFleet fleet(s, n, ticks_for_budget(n, event_budget));
  const auto t0 = std::chrono::steady_clock::now();
  s.run_until(fleet.horizon());
  const auto t1 = std::chrono::steady_clock::now();

  ArmResult r;
  r.backend = sim::to_string(backend);
  r.services = n;
  r.events = fleet.fired();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec =
      r.seconds > 0 ? static_cast<double>(r.events) / r.seconds : 0.0;
  r.rss_mb = proc_status_mb("VmRSS:");
  r.peak_rss_mb = proc_status_mb("VmHWM:");
  return r;
}

void write_json(const std::vector<FleetMonthResult>& months,
                const std::vector<ArmResult>& arms, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": 4,\n  \"bench\": \"fleet_scale\",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"fleet_month\": [\n";
  for (std::size_t i = 0; i < months.size(); ++i) {
    const FleetMonthResult& m = months[i];
    out << "    {\"services\": " << m.services << ", \"setup_s\": " << m.setup_s
        << ", \"run_s\": " << m.run_s << ", \"peak_rss_mb\": " << m.peak_rss_mb
        << ", \"cost_pct\": " << m.cost_pct
        << ", \"unavail_pct\": " << m.unavail_pct << "}"
        << (i + 1 < months.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    out << "    {\"backend\": \"" << a.backend
        << "\", \"services\": " << a.services << ", \"events\": " << a.events
        << ", \"seconds\": " << a.seconds
        << ", \"events_per_sec\": " << a.events_per_sec
        << ", \"rss_mb\": " << a.rss_mb << ", \"peak_rss_mb\": "
        << a.peak_rss_mb << "}" << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void print_arm(const ArmResult& r) {
  std::printf("%-8s %9zu %12" PRIu64 " %9.3f %13.0f %9.1f\n",
              r.backend.c_str(), r.services, r.events, r.seconds,
              r.events_per_sec, r.rss_mb);
}

}  // namespace

int main() {
  const bool smoke = bench::env_runs() <= 1;

  std::printf("real fleet month, fleet_month shape (%u hw threads)%s\n",
              std::thread::hardware_concurrency(), smoke ? " [smoke]" : "");
  std::printf("%9s %9s %9s %9s %10s %12s\n", "services", "setup s", "run s",
              "peak MB", "cost %", "unavail %");
  std::vector<FleetMonthResult> months;
  for (const int n : smoke ? std::vector<int>{1000, 10000} : std::vector<int>{100000}) {
    const std::optional<FleetMonthResult> r = run_fleet_month_isolated(n);
    if (!r) {
      std::fprintf(stderr, "bench_fleet_scale: the %d-service fleet month failed\n", n);
      return 1;
    }
    std::printf("%9d %9.3f %9.3f %9.1f %10.4f %12.6f\n", r->services, r->setup_s,
                r->run_s, r->peak_rss_mb, r->cost_pct, r->unavail_pct);
    months.push_back(*r);
  }

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{1000, 10000, 100000, 1000000};
  const std::uint64_t budget = exec::env_u64("SPOTHOST_FLEET_EVENTS", 2000000);

  std::printf("\nfleet-scale event core (budget ~%" PRIu64
              " fired events/arm, %u hw threads)%s\n",
              budget, std::thread::hardware_concurrency(),
              smoke ? " [smoke]" : "");
  std::printf("%-8s %9s %12s %9s %13s %9s\n", "backend", "services",
              "events", "seconds", "events/sec", "rss MB");

  std::vector<ArmResult> arms;
  for (const std::size_t n : sizes) {  // ascending: VmHWM stays per-arm honest
    for (const auto backend :
         {sim::QueueBackend::kBinaryHeap, sim::QueueBackend::kTimingWheel}) {
      const ArmResult r = run_arm(backend, n, budget);
      print_arm(r);
      arms.push_back(r);
    }
    // Same size, both backends just ran: print the wheel/heap ratio.
    const double heap = arms[arms.size() - 2].events_per_sec;
    const double wheel = arms.back().events_per_sec;
    if (heap > 0) {
      std::printf("%-8s %9zu wheel/heap = %.2fx\n", "", n, wheel / heap);
    }
  }
  write_json(months, arms, "BENCH_fleet.json");
  std::printf("wrote BENCH_fleet.json (schema 4, %zu fleet months, %zu arms)\n",
              months.size(), arms.size());
  return 0;
}
