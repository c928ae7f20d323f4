// Trace tooling: generate a synthetic month of spot prices for any canonical
// market, print its statistics, and round-trip it through the CSV format —
// the same format you can use to feed *real* EC2 price-history exports into
// the simulator. The --timeline mode runs a full hosting month with a tracer
// attached and dumps the structured event stream.
//
//   $ ./trace_explorer                          # generate + stats + CSV demo
//   $ ./trace_explorer path/to/trace.csv        # inspect an existing CSV
//   $ ./trace_explorer --timeline               # hosting run event timeline
//   $ ./trace_explorer --timeline 7 migration_begin
//                                               # seed 7, one event kind only
//   $ ./trace_explorer --follow run.jsonl       # tail -f a growing event
//                                               # stream (e.g. spothost_serve
//                                               # --out run.jsonl); optional
//                                               # second arg = max seconds
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "spothost.hpp"

using namespace spothost;

namespace {

void describe(const trace::PriceTrace& t, double pon) {
  const auto from = t.start();
  const auto to = t.end();
  std::cout << "  points:        " << t.size() << " price changes over "
            << sim::to_hours(to - from) << " h\n";
  std::cout << "  mean price:    $" << metrics::fmt(t.time_average(from, to), 4)
            << "/hr\n";
  std::cout << "  min / max:     $" << metrics::fmt(t.min_price(from, to), 4)
            << " / $" << metrics::fmt(t.max_price(from, to), 4) << "\n";
  std::cout << "  stddev:        $"
            << metrics::fmt(trace::trace_stddev(t, from, to), 4) << "\n";
  if (pon > 0) {
    std::cout << "  below p_on:    "
              << metrics::fmt(100.0 * t.fraction_below(pon, from, to), 2)
              << "% of the time (p_on = $" << metrics::fmt(pon, 2) << ")\n";
    std::cout << "  above 4*p_on:  "
              << metrics::fmt(100.0 * (1.0 - t.fraction_below(4 * pon, from, to)),
                              3)
              << "% of the time (the proactive bid)\n";
  }
}

int run_timeline(std::uint64_t seed, std::optional<obs::EventKind> only) {
  sched::Scenario scenario;
  scenario.seed = seed;
  const auto cfg =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});

  obs::Tracer tracer;
  obs::RingBufferSink ring(1 << 16);
  const std::string jsonl_path = "/tmp/spothost_trace.jsonl";
  obs::JsonlSink jsonl(jsonl_path);
  tracer.add_sink(&ring);
  tracer.add_sink(&jsonl);

  obs::RunProfile profile;
  const auto m = metrics::run_hosting_scenario(scenario, cfg, nullptr, &tracer, &profile);

  std::map<std::string_view, int> by_kind;
  int shown = 0;
  for (const auto& e : ring.events()) {
    ++by_kind[obs::to_string(e.kind)];
    if (only && e.kind != *only) continue;
    // Price ticks dominate the stream; the timeline shows the decisions.
    if (!only && e.kind == obs::EventKind::kPriceChange) continue;
    const auto label = obs::code_label(e.kind, e.code);
    std::cout << "  " << sim::format_time(e.t) << "  "
              << obs::to_string(e.kind);
    if (!label.empty()) std::cout << " [" << label << "]";
    if (!e.market.empty()) std::cout << "  " << e.market;
    if (e.value != 0.0) std::cout << "  value=" << metrics::fmt(e.value, 4);
    std::cout << "\n";
    ++shown;
  }

  std::cout << "== event totals (seed " << seed << ") ==\n";
  for (const auto& [kind, n] : by_kind) {
    std::cout << "  " << kind << ": " << n << "\n";
  }
  std::cout << "  shown above: " << shown << " (dropped by ring: "
            << ring.dropped() << ")\n";
  std::cout << "== run ==\n  cost: " << metrics::fmt(m.normalized_cost_pct, 1)
            << "% of on-demand, unavailability "
            << metrics::fmt(m.unavailability_pct, 4) << "%\n";
  std::cout << "  dispatched " << profile.events_dispatched << " sim events in "
            << metrics::fmt(profile.wall_seconds, 3) << " s ("
            << metrics::fmt(profile.events_per_second() / 1e6, 2) << " M/s)\n";
  std::cout << "  full JSONL stream written to " << jsonl_path << "\n";
  return 0;
}

int run_follow(const std::string& path, double max_seconds) {
  // tail -f over a growing JSONL event stream: emit only complete
  // newline-terminated lines (a writer caught mid-line is completed on a
  // later poll), resume at the end of what we've printed, detect truncation.
  std::ifstream file;
  std::streamoff pos = 0;
  std::string partial;
  std::uint64_t lines = 0;
  const auto deadline =
      max_seconds > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(max_seconds))
          : std::chrono::steady_clock::time_point::max();
  while (std::chrono::steady_clock::now() < deadline) {
    if (!file.is_open()) {
      file.open(path, std::ios::binary);
      if (!file.is_open()) {
        std::this_thread::sleep_for(std::chrono::milliseconds{100});
        continue;
      }
    }
    file.clear();
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    if (size < pos) {  // truncated/rotated: start over
      std::cerr << "-- " << path << " truncated, restarting --\n";
      pos = 0;
      partial.clear();
    }
    if (size > pos) {
      file.seekg(pos);
      std::string chunk(static_cast<std::size_t>(size - pos), '\0');
      file.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.resize(static_cast<std::size_t>(file.gcount()));
      pos += static_cast<std::streamoff>(chunk.size());
      std::size_t start = 0;
      for (;;) {
        const auto nl = chunk.find('\n', start);
        if (nl == std::string::npos) {
          partial.append(chunk, start, std::string::npos);
          break;
        }
        std::string line = std::move(partial);
        partial.clear();
        line.append(chunk, start, nl - start);
        if (!line.empty()) {
          std::cout << line << "\n";
          ++lines;
        }
        start = nl + 1;
      }
      std::cout.flush();
      continue;  // drain quickly while the file is growing
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
  }
  std::cerr << "-- followed " << lines << " events --\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::string(argv[1]) == "--follow") {
    const double max_seconds = argc > 3 ? std::atof(argv[3]) : 0.0;
    return run_follow(argv[2], max_seconds);
  }
  if (argc > 1 && std::string(argv[1]) == "--timeline") {
    std::uint64_t seed = 42;
    if (argc > 2) {
      char* end = nullptr;
      seed = std::strtoull(argv[2], &end, 10);
      if (end == argv[2] || *end != '\0') {
        std::cerr << "seed must be an unsigned integer: " << argv[2] << "\n";
        return 1;
      }
    }
    std::optional<obs::EventKind> only;
    if (argc > 3) {
      only = obs::event_kind_from_string(argv[3]);
      if (!only) {
        std::cerr << "unknown event kind: " << argv[3] << "\n";
        return 1;
      }
    }
    return run_timeline(seed, only);
  }
  if (argc > 1) {
    std::cout << "== " << argv[1] << " ==\n";
    const auto t = trace::load_csv_file(argv[1]);
    describe(t, 0.0);
    return 0;
  }

  sim::RngFactory factory(2026);
  for (const auto region : trace::canonical_regions()) {
    const std::string r{region};
    const auto profile = trace::profile_for(r, "small");
    const double pon = cloud::on_demand_price(cloud::InstanceSize::kSmall, r);
    auto rng = factory.stream("explore/" + r);
    const auto t =
        trace::SyntheticSpotModel::generate(profile, pon, 30 * sim::kDay, rng);
    std::cout << "== " << r << "/small, one synthetic month ==\n";
    describe(t, pon);
  }

  // CSV round trip demo.
  auto rng = factory.stream("csv-demo");
  const auto t = trace::SyntheticSpotModel::generate(
      trace::profile_for("us-east-1a", "large"), 0.24, 7 * sim::kDay, rng);
  const std::string path = "/tmp/spothost_demo_trace.csv";
  trace::save_csv_file(t, path);
  const auto loaded = trace::load_csv_file(path);
  std::cout << "== CSV round trip ==\n  wrote " << t.size() << " points to "
            << path << ", read back " << loaded.size() << " — "
            << (loaded.size() == t.size() ? "identical" : "MISMATCH") << "\n";
  std::cout << "  (feed real EC2 DescribeSpotPriceHistory exports through this "
               "format to drive the simulator with measured data)\n";
  return 0;
}
