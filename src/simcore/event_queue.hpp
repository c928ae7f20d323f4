// Cancellable discrete-event queue: the backend seam.
//
// EventQueue is the abstract contract the Simulation drives; two backends
// implement it over the shared EventArena slab (simcore/event_arena.hpp):
//
//   * TimingWheelQueue (simcore/timing_wheel.hpp) — hierarchical timing
//     wheel, O(1) schedule/cancel/pop for the massively periodic hour-tick
//     and poll events that dominate fleet runs. The default.
//   * BinaryHeapQueue (below) — the classic O(log n) heap. Kept as the
//     differential-testing oracle.
//
// Determinism contract (both backends, enforced by the differential fuzz
// test in tests/simcore): events pop in (time, schedule order) — FIFO among
// equal timestamps — so same-seed runs are byte-identical regardless of
// backend, and the wheel can be the default without re-pinning goldens.
//
// The backend is chosen per Simulation, by its constructor argument; there
// is no process-wide switch. Tests inject the heap as an engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/clock.hpp"
#include "simcore/event_arena.hpp"
#include "simcore/time.hpp"

namespace spothost::sim {

/// Which EventQueue implementation backs a Simulation.
enum class QueueBackend : std::uint8_t {
  kTimingWheel,  ///< hierarchical timing wheel (default)
  kBinaryHeap,   ///< binary heap oracle
};

[[nodiscard]] const char* to_string(QueueBackend backend) noexcept;

class EventQueue {
 public:
  using Callback = sim::Callback;  // simcore/callback.hpp, via clock.hpp

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  virtual ~EventQueue() = default;

  /// Enqueues `cb` to fire at absolute time `when`. Returns a cancellation
  /// id. Backends may require monotone scheduling (when >= the time of the
  /// last pop); the Simulation's now() guard guarantees it.
  virtual EventId schedule(SimTime when, Callback cb) = 0;

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  virtual bool cancel(EventId id) = 0;

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] virtual bool empty() const = 0;

  /// Number of live events.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Timestamp of the earliest live event. Precondition: !empty().
  [[nodiscard]] virtual SimTime next_time() const = 0;

  /// Removes and returns the earliest live event. The callback is *moved*
  /// out of storage — dispatch never copies a callable.
  /// Precondition: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    Callback callback;
  };
  virtual Fired pop() = 0;

  /// Fused peek-and-pop, the dispatch loop's fast path: when the earliest
  /// live event fires at or before `horizon`, pops it into `out` and
  /// returns true; otherwise returns false with `out` untouched. One
  /// virtual call per dispatched event instead of three (empty / next_time
  /// / pop), and backends skip the duplicated find-the-earliest work.
  virtual bool pop_due(SimTime horizon, Fired& out) {
    if (empty() || next_time() > horizon) return false;
    out = pop();
    return true;
  }

  /// Drops all pending events. Ids issued before clear() stay invalid.
  virtual void clear() = 0;

  [[nodiscard]] virtual QueueBackend backend() const noexcept = 0;
};

/// Constructs the requested backend.
[[nodiscard]] std::unique_ptr<EventQueue> make_event_queue(QueueBackend backend);

/// Binary-heap backend. Events at equal timestamps fire in scheduling order
/// (FIFO) via a global sequence tie-break. Cancellation is O(1) in the arena
/// but lazy in the heap: cancelled entries stay until skimmed on pop. When
/// cancelled entries come to outnumber live ones (long fleet runs with
/// proactive bidding accumulate cancelled switchover/hour-tick events faster
/// than they pop), the heap is compacted in one O(n) rebuild, bounding
/// memory at ~2x the live count.
class BinaryHeapQueue final : public EventQueue {
 public:
  EventId schedule(SimTime when, Callback cb) override;
  bool cancel(EventId id) override;
  [[nodiscard]] bool empty() const override { return arena_.live() == 0; }
  [[nodiscard]] std::size_t size() const override { return arena_.live(); }
  [[nodiscard]] SimTime next_time() const override;
  Fired pop() override;
  bool pop_due(SimTime horizon, Fired& out) override;
  void clear() override;
  [[nodiscard]] QueueBackend backend() const noexcept override {
    return QueueBackend::kBinaryHeap;
  }

  /// Total heap entries, live + cancelled-but-not-yet-dropped. Exposed so
  /// tests can assert compaction keeps this bounded relative to size().
  [[nodiscard]] std::size_t heap_entries() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;  // entry is stale once the arena generation moves on
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool stale(const Entry& e) const {
    return arena_.gen(e.slot) != e.gen;
  }
  // Pops cancelled entries off the heap top.
  void skim() const;
  // Rebuilds the heap without cancelled entries once they exceed the live
  // count (above a small floor, so tiny queues never pay for a rebuild).
  void compact_if_stale();

  // Max-heap under Later (= earliest event at front), maintained with
  // std::push_heap/pop_heap; a plain vector so compaction can erase stale
  // entries in place. Mutable: skim() drops dead entries from const reads.
  mutable std::vector<Entry> heap_;
  EventArena arena_;
};

}  // namespace spothost::sim
