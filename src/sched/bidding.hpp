// Bidding layer — the "how much" axis of the scheduler decomposition.
//
// The paper's static policy (Sec. 3.1):
//  * Reactive:  bid = p_on. The provider revokes the moment the spot price
//    crosses the on-demand price, so every transition away from spot is a
//    forced migration executed inside the grace window.
//  * Proactive: bid = k * p_on (k = 4, the largest multiple EC2 allowed).
//    The scheduler watches the price itself and migrates voluntarily when
//    the price crosses p_on; only a spike that blows past k*p_on before the
//    voluntary migration commits still forces it.
//
// Dynamic strategies plug in behind the BidStrategy seam
// (SchedulerConfig::bidding): the scheduler and every placement policy
// route bids through bid_strategy_for(config), so a strategy can derive
// bids from committed market history instead of a static multiple. ForecastBidPolicy below is
// the shipped example. See docs/POLICIES.md for the policy author's guide.
#pragma once

#include <memory>
#include <string_view>

#include "cloud/provider.hpp"
#include "simcore/time.hpp"
#include "trace/price_trace.hpp"

namespace spothost::sched {

struct SchedulerConfig;  // sched/scheduler_config.hpp

enum class BiddingMode { kReactive, kProactive };

std::string_view to_string(BiddingMode mode) noexcept;

struct BidPolicy {
  BiddingMode mode = BiddingMode::kProactive;
  /// Bid multiple over the on-demand price in proactive mode (EC2 cap: 4x).
  double proactive_multiple = 4.0;

  /// The bid to place when acquiring a spot server in `market`.
  [[nodiscard]] double bid_for(const cloud::CloudProvider& provider,
                               const cloud::MarketId& market) const;

  /// Whether the policy performs voluntary (planned) spot->on-demand moves.
  [[nodiscard]] bool plans_migrations() const noexcept {
    return mode == BiddingMode::kProactive;
  }
};

/// Strategy interface for bid selection — the pluggable counterpart of
/// PlacementPolicy for the bid axis.
///
/// Contract for implementers (see docs/POLICIES.md):
///  * Strategies are immutable and shared (held by shared_ptr<const ...>):
///    one instance may serve many schedulers across threads, so both
///    methods must be const-pure — derive everything from the arguments.
///  * bid_for is consulted at every spot acquisition (placement decisions
///    and the pure-spot reacquisition loop). `now` is the decision time;
///    read only history the provider has committed by `now` (a market's
///    price_trace(), its current price) — never the wall clock, never RNG
///    outside the scheduler's named streams.
///  * plans_migrations decides whether the scheduler arms the proactive
///    machinery (watch for p_on crossings, migrate voluntarily). A strategy
///    bidding above p_on should return true, or spikes between p_on and the
///    bid will be ridden out instead of migrated away from.
class BidStrategy {
 public:
  virtual ~BidStrategy() = default;

  /// Stable strategy name, for logs and bench labels.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The bid to place when acquiring a spot server in `market` at `now`.
  [[nodiscard]] virtual double bid_for(const cloud::CloudProvider& provider,
                                       const SchedulerConfig& config,
                                       const cloud::MarketId& market,
                                       sim::SimTime now) const = 0;

  /// Whether the scheduler performs voluntary (planned) spot moves.
  [[nodiscard]] virtual bool plans_migrations(
      const SchedulerConfig& config) const noexcept = 0;
};

/// The default strategy: delegates to the static config.bid (BidPolicy).
/// Selecting it explicitly is byte-identical to leaving config.bidding null.
class StaticBidStrategy final : public BidStrategy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] double bid_for(const cloud::CloudProvider& provider,
                               const SchedulerConfig& config,
                               const cloud::MarketId& market,
                               sim::SimTime now) const override;
  [[nodiscard]] bool plans_migrations(
      const SchedulerConfig& config) const noexcept override;
};

/// Forecast-driven bidding: instead of a static multiple of p_on, bid
/// headroom over a rolling forecast of the spot price — an EWMA over a
/// PriceCursor scan of the trailing `lookback` window, sampled every
/// `sample_step`. The bid is clamped to [floor_multiple, cap_multiple] x
/// p_on (the cap mirrors EC2's 4x limit). A calm market therefore gets a
/// tight bid near its recent price band, and the bid widens only after the
/// market itself gets noisier — cheaper revocation insurance than a blanket
/// 4x everywhere. With no usable history (live push-fed markets before the
/// first commit, or now at the trace start) the bid falls back to the cap.
class ForecastBidPolicy final : public BidStrategy {
 public:
  struct Params {
    sim::SimTime lookback = 24 * sim::kHour;     ///< forecast window
    sim::SimTime sample_step = 5 * sim::kMinute;  ///< EWMA sampling grid
    double smoothing = 0.25;     ///< EWMA weight of each new sample, in (0,1]
    double headroom = 3.0;       ///< bid = headroom * forecast, then clamp
    double floor_multiple = 1.0; ///< bid >= floor_multiple * p_on
    double cap_multiple = 4.0;   ///< bid <= cap_multiple * p_on (EC2 cap)
  };

  /// Default knobs, as documented on Params.
  ForecastBidPolicy();
  /// Validates (throws std::invalid_argument naming the offending knob).
  explicit ForecastBidPolicy(Params params);

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] double bid_for(const cloud::CloudProvider& provider,
                               const SchedulerConfig& config,
                               const cloud::MarketId& market,
                               sim::SimTime now) const override;
  /// Always true: forecast bids sit above p_on, so spikes between p_on and
  /// the bid must be migrated away from voluntarily.
  [[nodiscard]] bool plans_migrations(
      const SchedulerConfig& config) const noexcept override;

  /// The raw EWMA forecast at `now` (no headroom, no clamp). Exposed so
  /// tests and benches can assert on the forecast itself. Precondition:
  /// non-empty trace with trace.start() < min(now, trace.end()).
  [[nodiscard]] double forecast(const trace::PriceTrace& price_trace,
                                sim::SimTime now) const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

/// The strategy a config selects: config.bidding if set, else a shared
/// immutable StaticBidStrategy delegating to config.bid.
std::shared_ptr<const BidStrategy> bid_strategy_for(const SchedulerConfig& config);

}  // namespace spothost::sched
