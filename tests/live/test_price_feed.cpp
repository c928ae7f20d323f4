// live::PriceFeed implementations: trace replay and the tail -f CSV/JSONL
// reader, including the edge cases a real growing feed file exhibits —
// writers caught mid-line, out-of-order rows, unknown markets, truncation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "live/feed_driver.hpp"
#include "live/price_feed.hpp"
#include "live/wall_clock.hpp"
#include "simcore/simulation.hpp"
#include "trace/price_trace.hpp"

namespace spothost {
namespace {

using live::FileTailFeed;
using live::PriceFeed;
using live::PriceUpdate;
using live::TraceReplayFeed;

class TempFeedFile {
 public:
  explicit TempFeedFile(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempFeedFile() { std::remove(path_.c_str()); }

  /// Appends exactly `text` (no newline added) and flushes to disk.
  void append(const std::string& text) {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << text;
    out.flush();
  }

  /// Truncates the file to empty.
  void truncate() {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

TEST(TraceReplayFeed, ReplaysPointsInOrder) {
  trace::PriceTrace t;
  t.append(0, 0.10);
  t.append(1000, 0.20);
  t.append(5000, 0.15);
  TraceReplayFeed feed;
  feed.add_market("us-east-1a/small", &t);
  ASSERT_EQ(feed.markets(), std::vector<std::string>{"us-east-1a/small"});

  PriceUpdate u;
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 0);
  EXPECT_DOUBLE_EQ(u.price, 0.10);
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 1000);
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 5000);
  EXPECT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kEnd);
  EXPECT_THROW(feed.next("nope", u), std::out_of_range);
}

TEST(FileTailFeed, ParsesCsvHeaderCommentsAndJsonl) {
  TempFeedFile f("feed_basic.csv");
  f.append("# recorded 2026-08-08\n");
  f.append("time,market,price\n");
  f.append("0,us-east-1a/small,0.08\n");
  f.append("{\"t\": 60000, \"market\": \"us-east-1a/small\", \"price\": 0.12}\n");
  f.append("end,120000\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  EXPECT_TRUE(feed.ended());
  EXPECT_EQ(feed.end_time(), 120000);
  EXPECT_EQ(feed.rejected_lines(), 0u);

  PriceUpdate u;
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 0);
  EXPECT_DOUBLE_EQ(u.price, 0.08);
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 60000);
  EXPECT_DOUBLE_EQ(u.price, 0.12);
  EXPECT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kEnd);
}

TEST(FileTailFeed, PartialTrailingLineWaitsForCompletion) {
  // A writer flushed mid-row: the fragment must not be parsed until its
  // newline lands, and must parse correctly once completed.
  TempFeedFile f("feed_partial.csv");
  f.append("0,m/small,0.10\n");
  f.append("60000,m/sm");  // torn mid-market-name, no newline

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 1u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 0);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);

  f.append("all,0.20\n");  // the rest of the torn row
  EXPECT_EQ(feed.pump(), 1u);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 60000);
  EXPECT_DOUBLE_EQ(u.price, 0.20);
  EXPECT_EQ(feed.rejected_lines(), 0u);
}

TEST(FileTailFeed, RejectsOutOfOrderRowsWithPosition) {
  TempFeedFile f("feed_ooo.csv");
  f.append("60000,m/small,0.10\n");
  f.append("30000,m/small,0.09\n");  // line 2: goes backwards
  f.append("60000,m/small,0.11\n");  // line 3: equal is also rejected
  f.append("90000,m/small,0.12\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  EXPECT_EQ(feed.rejected_lines(), 2u);
  ASSERT_EQ(feed.errors().size(), 2u);
  EXPECT_EQ(feed.errors()[0].line, 2u);
  EXPECT_NE(feed.errors()[0].message.find("out-of-order"), std::string::npos);
  EXPECT_EQ(feed.errors()[1].line, 3u);

  // The well-ordered rows still flow.
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 60000);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 90000);
}

TEST(FileTailFeed, UnknownMarketRowsAreCountedAndDropped) {
  TempFeedFile f("feed_unknown.csv");
  f.append("0,known/small,0.10\n");
  f.append("1000,mystery/xlarge,0.50\n");
  f.append("2000,known/small,0.11\n");

  FileTailFeed::Options o;
  o.markets = {"known/small"};
  FileTailFeed feed(f.path(), o);
  EXPECT_EQ(feed.pump(), 2u);
  EXPECT_EQ(feed.unknown_market_lines(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 0u);  // unknown != malformed
  EXPECT_EQ(feed.markets(), std::vector<std::string>{"known/small"});

  PriceUpdate u;
  ASSERT_EQ(feed.next("known/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 0);
  ASSERT_EQ(feed.next("known/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 2000);
}

TEST(FileTailFeed, MalformedRowsAreRejectedNotFatal) {
  TempFeedFile f("feed_bad.csv");
  f.append("not-a-number,m/small,0.10\n");
  f.append("1000,m/small,zero\n");
  f.append("2000,m/small,-3\n");
  f.append("3000\n");
  f.append("4000,m/small,0.10\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 4u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 4000);
}

TEST(FileTailFeed, TruncationToShorterFileIsDetectedAndResumed) {
  TempFeedFile f("feed_trunc.csv");
  f.append("0,m/small,0.10\n");
  f.append("1000,m/small,0.20\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);

  // The file shrinks, then the writer emits one fresh row.
  f.truncate();
  f.append("2000,m/small,0.30\n");
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.truncations(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 0u);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 2000);
  EXPECT_DOUBLE_EQ(u.price, 0.30);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);
}

TEST(FileTailFeed, RewriteGrowingPastOldOffsetRejectsStaleRows) {
  // The nasty rotation: the replacement file is *longer* than the consumed
  // offset, so a size check alone would resume mid-file on unrelated bytes.
  // The head-bytes signature catches it; replayed stale rows are rejected
  // as out-of-order (position reported), the genuinely new row flows.
  TempFeedFile f("feed_rewrite.csv");
  f.append("0,m/small,0.10\n");
  f.append("1000,m/small,0.20\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);

  f.truncate();
  f.append("500,m/small,0.05\n");   // stale: before delivered 1000
  f.append("1000,m/small,0.20\n");  // stale: equal to delivered 1000
  f.append("2000,m/small,0.30\n");  // new
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.truncations(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 2u);
  ASSERT_EQ(feed.errors().size(), 2u);
  EXPECT_EQ(feed.errors()[0].line, 1u);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 2000);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);
}

TEST(FileTailFeed, ByteIdenticalRotationResumesSeamlessly) {
  // Rotation that re-emits the identical history: the head signature
  // matches, so the feed resumes at its old offset — no replay, no spurious
  // truncation, just the appended row.
  TempFeedFile f("feed_rotate.csv");
  f.append("0,m/small,0.10\n");
  f.append("1000,m/small,0.20\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);

  f.truncate();
  f.append("0,m/small,0.10\n");
  f.append("1000,m/small,0.20\n");
  f.append("2000,m/small,0.30\n");
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.truncations(), 0u);
  EXPECT_EQ(feed.rejected_lines(), 0u);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 2000);
}

TEST(FileTailFeed, MissingFileIsWouldBlockUntilCreated) {
  TempFeedFile f("feed_late.csv");
  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 0u);
  PriceUpdate u;
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);
  f.append("0,m/small,0.10\n");
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
}

TEST(FeedDriver, TailedUpdatesReachTheMarketWithBoundedLatency) {
  // End-to-end tail path: a writer thread grows the file while the serve
  // loop pumps; every update must reach the market, and the read-to-deliver
  // latency stays within a generous CI-safe bound.
  TempFeedFile f("feed_latency.csv");
  f.append("0,us-east-1a/small,0.10\n");

  sim::Simulation sim;
  sim::RngFactory rng(1);
  cloud::CloudProvider provider(sim, rng);
  provider.add_live_market({"us-east-1a", cloud::InstanceSize::kSmall}, 0.25);
  provider.start();

  FileTailFeed feed(f.path());
  live::FeedDriver driver(sim, provider, feed);
  std::chrono::nanoseconds max_latency{0};
  std::size_t delivered = 0;
  driver.set_delivery_hook([&](const PriceUpdate& u) {
    ++delivered;
    max_latency = std::max(
        max_latency, std::chrono::steady_clock::now() - u.read_at);
  });
  driver.start();
  EXPECT_EQ(driver.primed_markets(), 1u);
  live::WallClock clock(sim, 10000.0);  // virtual time outruns the feed timestamps

  std::thread writer([&f] {
    for (int i = 1; i <= 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds{2});
      f.append(std::to_string(i * 10) + ",us-east-1a/small,0." +
               std::to_string(10 + i) + "\n");
    }
    f.append("end,60\n");
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (!feed.ended() || delivered < 5) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "feed stalled";
    driver.pump();
    clock.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  writer.join();
  driver.pump();
  clock.poll();

  EXPECT_EQ(delivered, 5u);
  EXPECT_DOUBLE_EQ(provider.market({"us-east-1a", cloud::InstanceSize::kSmall}).price(),
                   0.15);
  // Bounded decision latency: with a 1 ms pump cadence, delivery should be
  // near-instant; 5 s absorbs the worst CI scheduling hiccup.
  EXPECT_LT(max_latency, std::chrono::seconds{5});
}

}  // namespace
}  // namespace spothost
