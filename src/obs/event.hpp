// Typed trace events: the run-observability vocabulary for spothost.
//
// Every interesting state transition in a hosting run — a price tick, a bid,
// a revocation warning, each phase of a migration, an outage — is recorded
// as one TraceEvent and pushed through the TraceSink interface (sink.hpp).
// Events carry *simulation* time only, never wall-clock, so two runs with
// the same seed produce byte-identical event streams.
//
// The struct is deliberately flat and self-contained (plain integers,
// doubles, and strings): obs depends only on simcore/time.hpp, so every
// other layer (cloud, sched, workload, metrics) can emit without dependency
// cycles. Kind-specific meaning of `code`, `value`, and `aux` is documented
// per kind below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "simcore/time.hpp"

namespace spothost::obs {

enum class EventKind : std::uint8_t {
  kPriceChange = 0,      ///< market tick. value = new spot price
  kPriceCrossing,        ///< effective price crossed the on-demand threshold.
                         ///< code = crossing direction; value = effective
                         ///< price, aux = threshold
  kBidPlaced,            ///< server requested. code = billing mode; value =
                         ///< bid (spot) or on-demand price; instance = request
  kSpotRequestFailed,    ///< spot request rejected at grant time.
                         ///< value = price at grant, aux = bid
  kAcquisition,          ///< instance granted and running. code = billing
                         ///< mode; value = price at launch
  kRevocationWarning,    ///< provider warning. value = price that crossed the
                         ///< bid, aux = termination time (seconds)
  kMigrationBegin,       ///< code = migration class; market = target (forced:
                         ///< source); value = 1 if target is on-demand;
                         ///< forced: aux = termination time (seconds)
  kMigrationTransfer,    ///< transfer started. code = class; value = prepare
                         ///< seconds (pre-jitter plan)
  kMigrationSwitchover,  ///< migration completed. code = class; market =
                         ///< destination; value = planned downtime seconds
  kMigrationAbandon,     ///< in-flight migration walked away from.
                         ///< code = abandon reason
  kMarketSwitch,         ///< planned move landed on another *spot* market
  kOutageBegin,          ///< code = outage cause
  kOutageEnd,            ///< value = 1 if a degraded window follows
  kDegradedEnd,          ///< lazy-restore degraded window ended
  kBillingHourTick,      ///< on-demand billing-hour reverse check fired.
                         ///< value = on-demand threshold price
  kFaultInjected,        ///< the fault-injection layer fired. code = the
                         ///< faults::FaultKind; value = opportunity index
  kRetryScheduled,       ///< fault-recovery retry scheduled. code = retry
                         ///< context; value = attempt #, aux = backoff seconds
  kDegradedMode,         ///< graceful-degradation fallback taken.
                         ///< code = degradation kind
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kDegradedMode) + 1;

/// Kind-specific `code` values. Kept as plain constants (not per-kind enums)
/// so sinks can aggregate over (kind, code) pairs uniformly.
namespace code {
inline constexpr std::uint8_t kNone = 0;
// kBidPlaced / kAcquisition: billing mode of the server.
inline constexpr std::uint8_t kSpot = 0;
inline constexpr std::uint8_t kOnDemand = 1;
// kPriceCrossing: direction relative to the on-demand threshold.
inline constexpr std::uint8_t kAbove = 0;
inline constexpr std::uint8_t kBelow = 1;
// kMigration{Begin,Transfer,Switchover}: migration class.
inline constexpr std::uint8_t kForced = 0;
inline constexpr std::uint8_t kPlanned = 1;
inline constexpr std::uint8_t kReverse = 2;
// kMigrationAbandon: why the in-flight migration was dropped.
inline constexpr std::uint8_t kAbandonPriceRecovered = 0;  ///< spike cancel
inline constexpr std::uint8_t kAbandonDestRevoked = 1;
inline constexpr std::uint8_t kAbandonPreempted = 2;  ///< forced flow took over
inline constexpr std::uint8_t kAbandonFault = 3;  ///< injected migration fault
// kOutageBegin: cause (mirrors workload::OutageCause).
inline constexpr std::uint8_t kCauseForcedMigration = 0;
inline constexpr std::uint8_t kCausePlannedMigration = 1;
inline constexpr std::uint8_t kCauseReverseMigration = 2;
inline constexpr std::uint8_t kCauseSpotLoss = 3;
inline constexpr std::uint8_t kCauseOther = 4;
// kFaultInjected: which fault fired (mirrors faults::FaultKind).
inline constexpr std::uint8_t kFaultAllocCapacity = 0;
inline constexpr std::uint8_t kFaultAllocTimeout = 1;
inline constexpr std::uint8_t kFaultWarningDelayed = 2;
inline constexpr std::uint8_t kFaultWarningDropped = 3;
inline constexpr std::uint8_t kFaultLiveCopyAbort = 4;
inline constexpr std::uint8_t kFaultCheckpointStall = 5;
// kRetryScheduled: which recovery loop scheduled the retry.
inline constexpr std::uint8_t kRetryAcquire = 0;   ///< CloudScheduler acquisition
inline constexpr std::uint8_t kRetryForcedDest = 1;  ///< forced-flow destination
// kDegradedMode: which graceful-degradation fallback was taken.
inline constexpr std::uint8_t kDegradeOnDemandFallback = 0;  ///< spot -> on-demand
inline constexpr std::uint8_t kDegradeLiveToCkpt = 1;  ///< live abort -> CKPT
inline constexpr std::uint8_t kDegradeStallAbsorbed = 2;  ///< stall -> degraded
inline constexpr std::uint8_t kDegradeSlowRetry = 3;  ///< retries exhausted
}  // namespace code

/// Highest `code` value any kind uses, plus one (sizes counter tables).
inline constexpr std::size_t kMaxCodes = 8;

struct TraceEvent {
  sim::SimTime t = 0;  ///< simulation time (ms) — never wall-clock
  EventKind kind = EventKind::kPriceChange;
  std::uint8_t code = code::kNone;  ///< kind-specific discriminator
  std::uint64_t instance = 0;       ///< instance id, 0 = none
  double value = 0.0;               ///< kind-specific (see EventKind docs)
  double aux = 0.0;                 ///< kind-specific secondary value
  std::string market;               ///< "region/size", empty = none
  std::string note;                 ///< optional freeform detail

  bool operator==(const TraceEvent&) const = default;
};

/// Stable snake_case name, used in the JSONL encoding.
std::string_view to_string(EventKind kind) noexcept;

/// Inverse of to_string; nullopt for unknown names.
std::optional<EventKind> event_kind_from_string(std::string_view name) noexcept;

/// Human-readable label for a (kind, code) pair ("forced", "on_demand", ...);
/// empty when the kind has no code vocabulary.
std::string_view code_label(EventKind kind, std::uint8_t c) noexcept;

/// One-line JSON encoding with a fixed key order and shortest-round-trip
/// doubles, so equal events always serialize to identical bytes:
///   {"t":1234,"kind":"bid_placed","code":0,"instance":3,"value":0.24,
///    "aux":0,"market":"us-east-1a/small","note":""}
std::string to_jsonl(const TraceEvent& event);

/// Appends to_jsonl(event) to `out` (no newline), so a caller encoding many
/// events can reuse one buffer.
void append_jsonl(std::string& out, const TraceEvent& event);

/// Parses a line produced by to_jsonl; nullopt on malformed input.
std::optional<TraceEvent> from_jsonl(std::string_view line);

}  // namespace spothost::obs
