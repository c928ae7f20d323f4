// Aggregating counter sink: counts events per (kind, code) pair. This is
// the backing store for sched::SchedulerStats — the scheduler feeds every
// event it emits through one of these, and stats() is *derived* from the
// counters, so the end-of-run aggregates and the trace stream can never
// disagree.
//
// Counts are 32-bit: every scheduler owns a sink, which is half of its
// fixed size, and a count past 2^32 - 1 per (kind, code) would wrap. One
// scheduler's month emits thousands of events, and a whole traced
// 100k-service month stays under 10^8.
#pragma once

#include <array>
#include <cstdint>

#include "obs/sink.hpp"

namespace spothost::obs {

class CounterSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { add(event.kind, event.code); }

  /// Counts one (kind, code) event without one being built — the untraced
  /// emitters' path.
  void add(EventKind kind, std::uint8_t c) noexcept {
    const auto k = static_cast<std::size_t>(kind);
    if (k >= kEventKindCount) return;
    ++totals_[k];
    if (c < kMaxCodes) ++by_code_[k][c];
  }

  /// Events of `kind`, any code.
  [[nodiscard]] std::uint64_t count(EventKind kind) const noexcept {
    const auto k = static_cast<std::size_t>(kind);
    return k < kEventKindCount ? totals_[k] : 0;
  }

  /// Events of `kind` with exactly `code`.
  [[nodiscard]] std::uint64_t count(EventKind kind, std::uint8_t c) const noexcept {
    const auto k = static_cast<std::size_t>(kind);
    return (k < kEventKindCount && c < kMaxCodes) ? by_code_[k][c] : 0;
  }

  /// All events seen, any kind.
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto v : totals_) sum += v;
    return sum;
  }

  void clear() {
    totals_ = {};
    by_code_ = {};
  }

 private:
  std::array<std::uint32_t, kEventKindCount> totals_{};
  std::array<std::array<std::uint32_t, kMaxCodes>, kEventKindCount> by_code_{};
};

}  // namespace spothost::obs
