// ThreadSanitizer check for the SPOTHOST_EVENT_QUEUE lookup. Every
// Simulation() reads the knob through its default argument, and sweeps build
// one World per pool thread, so the lookup runs on many threads at once.
// Registered in the TSan CI job (QueueEnvRace) — the assertions here are
// basic; the real oracle is TSan itself.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "simcore/event_queue.hpp"

namespace spothost::sim {
namespace {

TEST(QueueEnvRace, ConcurrentDefaultBackendLookups) {
  // An unrecognised value sends every call down the warn-once path, whose
  // latch must be synchronized: a plain static bool is a data race here.
  ::setenv("SPOTHOST_EVENT_QUEUE", "bogus", 1);
  constexpr int kThreads = 8;
  std::vector<QueueBackend> seen(kThreads, QueueBackend::kBinaryHeap);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&seen, i] { seen[i] = default_queue_backend(); });
  }
  for (auto& t : threads) t.join();
  ::unsetenv("SPOTHOST_EVENT_QUEUE");
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], QueueBackend::kTimingWheel) << "thread " << i;
  }
}

}  // namespace
}  // namespace spothost::sim
