// spotbench — the repository benchmark's driver. Usually started through
// perfbench/run.py, which builds it first:
//
//   spotbench --workload <fleet_month|fleet_mixed|paper_sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--reference <file>]
//             [--spans-out <file.csv>]
//
// Standard output: CONTEXT, DIGEST and COUNTERS lines, the traced run's
// layer report, and as the last line one JSON object with the keys
// correct, attempted, failed and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "spotbench: " << why
            << "\nusage: spotbench --workload <fleet_month|fleet_mixed|paper_sweep>"
               " --seed <n> --seconds <s> --trace <0|1> [--smoke]"
               " [--reference <file>] [--spans-out <file>]\n";
  std::exit(2);
}

spotbench::Options parse(int argc, char** argv) {
  spotbench::Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        if (value.empty() || value[0] == '-') usage("--seed must be >= 0");
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
        if (!(opts.seconds > 0.0 && opts.seconds <= 3600.0)) {
          usage("--seconds must be in (0, 3600]");
        }
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (arg == "--reference") {
        opts.reference_path = value;
      } else if (arg == "--spans-out") {
        opts.spans_out = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const spotbench::Options opts = parse(argc, argv);
  // Pin the execution choices the library reads from the environment, so
  // the caller's environment cannot change the workload: the timing-wheel
  // queue everywhere, and a pool no larger than the machine (at most 4
  // workers).
  setenv("SPOTHOST_EVENT_QUEUE", "wheel", 1);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  setenv("SPOTHOST_THREADS", std::to_string(std::min(4u, hw)).c_str(), 1);

  spotbench::Result r;
  try {
    r = spotbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "spotbench: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream line;
  line << "CONTEXT {";
  for (std::size_t i = 0; i < r.context.size(); ++i) {
    line << (i ? ", " : "") << json_string(r.context[i].first) << ": "
         << json_string(r.context[i].second);
  }
  std::cout << line.str() << "}\n";
  std::cout << "DIGEST " << r.digest << "\n";
  line.str("");
  line << "COUNTERS {";
  for (std::size_t i = 0; i < r.counters.size(); ++i) {
    line << (i ? ", " : "") << json_string(r.counters[i].first) << ": "
         << r.counters[i].second;
  }
  std::cout << line.str() << "}\n";
  for (const auto& note : r.notes) std::cout << "REPORT " << note << "\n";

  line.str("");
  bool finite = true;
  line << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    finite = finite && std::isfinite(m.value);
    line << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
         << json_number(std::isfinite(m.value) ? m.value : 0.0)
         << ", \"unit\": " << json_string(m.unit) << "}";
  }
  line << "}}";
  std::string out = line.str();
  if (!finite) {
    std::cerr << "spotbench: a metric is not a finite number\n";
    return 1;
  }
  std::cout << out << std::endl;
  return 0;
}
