// Migration engine — layer 3 ("how to move") of the scheduler decomposition.
//
// The engine owns the mechanics of the paper's three migration classes
// (Sec. 3): the in-flight voluntary (planned/reverse) migration with its
// destination request, transfer and switchover timing, spike abandonment,
// and the forced revocation flow (bounded checkpoint flush in the grace
// window, on-demand replacement, lazy restore). It drives the VM mechanism
// models and the provider's instance lifecycle, but owns no *policy*: the
// host decides when to migrate and where to (sched/placement.hpp), and the
// engine reports back through the narrow MigrationHost interface.
//
// The host keeps sole ownership of the trace pipeline (MigrationHost::trace)
// so engine-emitted events still feed the scheduler's CounterSink — stats
// can never disagree with an attached sink — and of the timing RNG stream,
// which the engine borrows so jitter draws stay in the monolith's order
// (same-seed runs are byte-identical).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cloud/provider.hpp"
#include "obs/counter_sink.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler_config.hpp"
#include "simcore/rng.hpp"
#include "simcore/clock.hpp"
#include "virt/mechanisms.hpp"
#include "workload/endpoint.hpp"

namespace spothost::sched {

/// The scheduler's lease flows: the cloud::LeaseTag of every request a
/// CloudScheduler or its MigrationEngine makes, and of every revocation it
/// arms. The CloudScheduler is the lease owner of all of them; it handles
/// its own flows and passes the engine's to it.
enum class LeaseFlow : cloud::LeaseTag {
  kAcquire,            ///< initial acquisition, and its fault retries
  kPureSpotReacquire,  ///< the pure-spot baseline's (re)acquisition
  kVoluntaryDest,      ///< a planned/reverse migration's destination
  kForcedDest,         ///< a forced migration's on-demand replacement
  kHolding,            ///< armed only: the server the service runs on
};

[[nodiscard]] constexpr cloud::LeaseTag tag(LeaseFlow flow) noexcept {
  return static_cast<cloud::LeaseTag>(flow);
}

/// Why an in-flight planned/reverse migration was torn down. Only
/// kPriceRecovered counts as a "spike cancellation" in the stats.
enum class AbandonReason : std::uint8_t {
  kPriceRecovered,  ///< the price trigger evaporated before transfer
  kDestRevoked,     ///< the destination instance got a revocation warning
  kPreempted,       ///< superseded by a forced migration of the source
  kFault,           ///< an injected mid-flight fault (e.g. live-copy abort)
};

/// One trace record as the engine and its host emit it: a TraceEvent's
/// fields, minus the time (always now), with the market as a MarketIndex.
/// It is built on every emission, so it holds no string: the host counts it
/// by (kind, code) and builds the TraceEvent — market name included — only
/// when a tracer is enabled.
struct HostEvent {
  obs::EventKind kind = obs::EventKind::kPriceChange;
  std::uint8_t code = obs::code::kNone;
  cloud::InstanceId instance = cloud::kInvalidInstance;
  double value = 0.0;
  double aux = 0.0;
  std::optional<cloud::MarketIndex> market{};  ///< none = no market named
};

/// What the MigrationEngine needs from whoever hosts it (CloudScheduler).
/// Deliberately narrow: current-source queries, lifecycle notifications,
/// and the trace pipeline. No scheduler internals leak through.
///
/// Contract for implementers:
///  * Every method may be called from inside a simulation event, including
///    reentrantly from a host call into the engine (begin_forced abandons an
///    in-flight voluntary move, which calls back on_voluntary_dest_failed
///    only through the failure path — but adopt/on_source_released do fire
///    synchronously from complete_switchover). Implementations must tolerate
///    being invoked while their own call into the engine is on the stack.
///  * adopt() transfers ownership of `instance` to the host, which becomes
///    responsible for arming its revocation warning and for its eventual
///    termination.
///  * The host is the lease owner of the engine's requests (the owner id
///    the engine is built with): it passes the provider's answers to
///    lease_ready / lease_failed, and a warning for a destination the
///    engine armed (LeaseFlow::kVoluntaryDest) back into its own trigger
///    handling.
///  * on_voluntary_dest_failed is advisory: the engine has already torn the
///    migration down; the host may re-trigger or drop the move. It is NOT
///    called when fault-recovery retries are disabled (the retries-off
///    ablation deliberately strands failed moves).
///  * trace() is the only trace path: the engine never emits events around
///    the host, so the host's CounterSink (and therefore SchedulerStats) can
///    never disagree with an attached tracer.
class MigrationHost {
 public:
  virtual ~MigrationHost() = default;

  /// The instance currently hosting the service (kInvalidInstance if none).
  [[nodiscard]] virtual cloud::InstanceId source_instance() const noexcept = 0;
  /// Market of source_instance(); meaningful only while one is held.
  [[nodiscard]] virtual cloud::MarketIndex source_market() const = 0;

  /// A migration completed: the service now runs on `instance`.
  virtual void adopt(cloud::InstanceId instance, cloud::MarketIndex market,
                     bool on_demand) = 0;
  /// A forced flow began: drop any scheduled voluntary-migration timers.
  virtual void on_forced_begin() = 0;
  /// The provider terminated the source (forced t_term): the service has no
  /// home until the forced flow resumes it.
  virtual void on_source_lost() = 0;
  /// A voluntary switchover released the source; source-bound timers
  /// (reverse hour checks) are now stale.
  virtual void on_source_released() = 0;
  /// A voluntary destination request failed or its instance was revoked
  /// before adoption; the host may retry per its trigger policy.
  virtual void on_voluntary_dest_failed(virt::MigrationClass cls) = 0;

  /// Trace pipeline (counters + attached tracer) — the engine never emits
  /// events around the host.
  virtual void trace(const HostEvent& event) = 0;
};

class MigrationEngine {
 public:
  /// `lease_owner` is the host's registered cloud::LeaseOwner: the engine
  /// names it in every request it makes.
  MigrationEngine(sim::Clock& clock, cloud::CloudProvider& provider,
                  workload::ServiceEndpoint& service, MigrationHost& host,
                  cloud::LeaseOwnerId lease_owner, const SchedulerConfig& config,
                  const virt::VmSpec& spec, sim::RngStream& timing_rng);

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Starts a voluntary (planned/reverse) migration of `source` to `target`:
  /// requests the destination, transfers once it is ready, switches over.
  void begin_voluntary(virt::MigrationClass cls, const Placement& target,
                       cloud::InstanceId source);

  /// Starts the forced flow for a source under a revocation warning that
  /// terminates at `t_term`. Cannibalises a same-region in-flight voluntary
  /// destination; abandons any other.
  void begin_forced(sim::SimTime t_term, cloud::InstanceId source,
                    cloud::MarketIndex source_market);

  /// Tears down the in-flight voluntary migration (cancels or releases the
  /// destination, emits the abandon event).
  void abandon(AbandonReason reason);

  /// The provider granted the engine's request `instance` (flow
  /// kVoluntaryDest or kForcedDest).
  void lease_ready(cloud::InstanceId instance, LeaseFlow flow);
  /// The engine's request `instance` failed at grant time.
  void lease_failed(cloud::InstanceId instance, LeaseFlow flow,
                    cloud::AllocFailure reason);

  /// Consumes a revocation warning aimed at the in-flight voluntary
  /// destination: abandons it and returns its class so the host can retry.
  /// nullopt = the warning was not for our destination.
  [[nodiscard]] std::optional<virt::MigrationClass> dest_warned(
      cloud::InstanceId instance);

  // --- state queries ----------------------------------------------------
  [[nodiscard]] bool active() const noexcept {
    return migration_.has_value() || forced_.has_value();
  }
  [[nodiscard]] bool forced_active() const noexcept { return forced_.has_value(); }
  [[nodiscard]] bool voluntary_active() const noexcept {
    return migration_.has_value();
  }
  [[nodiscard]] std::optional<virt::MigrationClass> voluntary_class() const;
  [[nodiscard]] bool transfer_started() const noexcept;
  /// When a voluntary transfer is in flight: the time the service will be
  /// back up on the destination (switchover + downtime). nullopt otherwise.
  [[nodiscard]] std::optional<sim::SimTime> voluntary_completion_time() const;

  // --- shared mechanism services ---------------------------------------
  [[nodiscard]] const virt::MigrationPlanner& planner() const noexcept {
    return planner_;
  }
  /// `seconds` as SimTime with the configured lognormal measurement jitter,
  /// drawn from the host's timing stream.
  [[nodiscard]] sim::SimTime jittered(double seconds);

  /// Owner tag applied to every destination instance the engine requests
  /// from now on (cloud::CloudProvider::set_instance_owner).
  void set_owner_tag(std::uint64_t owner) noexcept { owner_ = owner; }

 private:
  struct Migration {
    virt::MigrationClass cls{};
    cloud::MarketIndex target = 0;
    bool target_on_demand = false;
    cloud::InstanceId dest = cloud::kInvalidInstance;
    bool dest_ready = false;
    bool transfer_started = false;
    sim::SimTime switchover_at = -1;
    virt::MigrationTimings timings{};
    sim::EventHandle switchover_event;
  };

  struct Forced {
    sim::SimTime t_term = 0;
    cloud::InstanceId dest = cloud::kInvalidInstance;
    bool dest_ready = false;
    sim::SimTime dest_ready_at = -1;
    bool service_stopped = false;
    bool resume_scheduled = false;
    virt::MigrationTimings timings{};
    /// Market the replacement server is requested in — kept so the
    /// fault-recovery chain can re-request after an injected capacity error.
    cloud::MarketIndex od_market = 0;
    int dest_attempts = 0;  ///< failed replacement requests so far
    bool degraded = false;  ///< degraded-mode (slow-poll) announcement made
  };

  void start_transfer();
  void complete_switchover();
  void forced_try_resume();
  cloud::InstanceId request_forced_dest(cloud::MarketIndex od_market);
  [[nodiscard]] const std::string& region(cloud::MarketIndex m) const {
    return provider_.market(m).id().region;
  }
  void on_forced_dest_failed();

  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  workload::ServiceEndpoint& service_;
  MigrationHost& host_;
  cloud::LeaseOwnerId lease_owner_;
  const SchedulerConfig& config_;
  const virt::VmSpec& spec_;
  sim::RngStream& rng_;
  virt::MigrationPlanner planner_;
  /// Fallback planner with live pre-copy stripped from the combo — used when
  /// an injected kLiveCopyAbort degrades a live migration to stop-and-copy.
  virt::MigrationPlanner ckpt_planner_;

  std::optional<Migration> migration_;
  std::optional<Forced> forced_;
  std::uint64_t owner_ = cloud::kNoOwner;
};

}  // namespace spothost::sched
