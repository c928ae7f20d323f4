// Table 1: average start-up time of on-demand and spot instances per region.
// Samples the provider's allocation-latency model (itself calibrated to the
// paper's measured means) and prints measured-vs-paper.
#include "bench_common.hpp"

using namespace spothost;

int main() {
  sched::World world(bench::full_scenario());
  auto& provider = world.provider();
  auto& engine = world.engine();

  struct Row {
    std::string region;
    double paper_od, paper_spot;
  };
  const std::vector<Row> rows{{"us-east-1a", 94.85, 281.47},
                              {"us-west-1a", 93.63, 219.77},
                              {"eu-west-1a", 98.08, 233.37}};

  metrics::print_banner(std::cout, "Table 1: average start-up time (s)");
  metrics::TextTable table({"region", "on-demand (sim)", "on-demand (paper)",
                            "spot (sim)", "spot (paper)"});

  // Times each grant from its request and releases the server at once.
  struct Sampler final : cloud::LeaseOwner {
    cloud::CloudProvider& provider;
    sim::Clock& clock;
    double sum[2] = {0.0, 0.0};  ///< by tag: 0 on-demand, 1 spot
    int done[2] = {0, 0};
    Sampler(cloud::CloudProvider& p, sim::Clock& c) : provider(p), clock(c) {}
    void on_ready(cloud::InstanceId iid, cloud::LeaseTag tag) override {
      sum[tag] += sim::to_seconds(clock.now() - provider.instance(iid).requested_at);
      ++done[tag];
      provider.terminate(iid);
    }
    void on_failed(cloud::InstanceId, cloud::LeaseTag, cloud::AllocFailure) override {}
    void on_revocation(cloud::InstanceId, cloud::LeaseTag, sim::SimTime) override {}
  };

  constexpr int kSamples = 200;
  for (const auto& row : rows) {
    const cloud::MarketId m = bench::market(row.region, "small");
    Sampler sampler(provider, engine);
    const cloud::LeaseOwnerId owner = provider.add_owner(&sampler);
    for (int i = 0; i < kSamples; ++i) {
      provider.request_on_demand(m, owner, /*tag=*/0);
      // Never rejected at this bid: we are sampling latency only.
      provider.request_spot(m, /*bid=*/1e9, owner, /*tag=*/1);
      engine.run_until(engine.now() + sim::kHour);
    }
    provider.remove_owner(owner);
    const double od_sum = sampler.sum[0], spot_sum = sampler.sum[1];
    const int od_done = sampler.done[0], spot_done = sampler.done[1];
    table.add_row({row.region, metrics::fmt(od_sum / od_done, 2),
                   metrics::fmt(row.paper_od, 2),
                   metrics::fmt(spot_sum / spot_done, 2),
                   metrics::fmt(row.paper_spot, 2)});
  }
  table.print(std::cout);
  std::cout << "(on-demand ~1.5 min; spot 3.5-4.5 min — Sec. 4.1)\n";
  return 0;
}
