#include "obs/jsonl_sink.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace spothost::obs {
namespace {

std::vector<TraceEvent> sample_events() {
  std::vector<TraceEvent> out;
  TraceEvent a;
  a.t = 1000;
  a.kind = EventKind::kBidPlaced;
  a.code = code::kSpot;
  a.instance = 1;
  a.value = 0.24;
  a.market = "us-east-1a/small";
  out.push_back(a);
  TraceEvent b;
  b.t = 2000;
  b.kind = EventKind::kOutageBegin;
  b.code = code::kCauseSpotLoss;
  b.note = "service \"web\"";
  out.push_back(b);
  return out;
}

TEST(JsonlSink, WritesOneParsableLinePerEvent) {
  std::ostringstream os;
  JsonlSink sink(os);
  const auto events = sample_events();
  for (const auto& e : events) sink.on_event(e);
  sink.flush();
  EXPECT_EQ(sink.events_written(), events.size());

  std::istringstream is(os.str());
  std::string line;
  std::size_t i = 0;
  while (std::getline(is, line)) {
    const auto parsed = from_jsonl(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ASSERT_LT(i, events.size());
    EXPECT_EQ(*parsed, events[i]);
    ++i;
  }
  EXPECT_EQ(i, events.size());
}

// One event of every kind, with strings that need escaping.
std::vector<TraceEvent> every_kind() {
  std::vector<TraceEvent> out;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    TraceEvent e;
    e.t = static_cast<sim::SimTime>(1000 * k) - 7;
    e.kind = static_cast<EventKind>(k);
    e.code = static_cast<std::uint8_t>(k % kMaxCodes);
    e.instance = k * 31;
    e.value = 0.1 * static_cast<double>(k) + 1e-17;
    e.aux = -1.0 / (static_cast<double>(k) + 3.0);
    e.market = k % 2 == 0 ? "us-east-1a/small" : "eu\"west\\1a/x\tlarge";
    e.note = k % 3 == 0 ? "" : "line\nbreak \"quoted\" \x01 ctl";
    out.push_back(e);
  }
  return out;
}

TEST(JsonlSink, WritesExactlyToJsonlPlusNewlineForEveryKind) {
  const auto events = every_kind();
  std::ostringstream os;
  JsonlSink sink(os);
  std::string expected;
  for (const auto& e : events) {
    sink.on_event(e);
    expected += to_jsonl(e) + '\n';
  }
  EXPECT_EQ(os.str(), expected);
  EXPECT_EQ(sink.events_written(), events.size());
}

TEST(JsonlSink, AppendJsonlAppendsToJsonl) {
  std::string buffer = "prefix|";
  for (const auto& e : every_kind()) {
    const std::size_t before = buffer.size();
    append_jsonl(buffer, e);
    EXPECT_EQ(buffer.substr(before), to_jsonl(e));
  }
  EXPECT_EQ(buffer.rfind("prefix|", 0), 0u);
}

TEST(JsonlSink, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "spothost_jsonl_sink_test.jsonl";
  const auto events = sample_events();
  {
    JsonlSink sink(path);
    for (const auto& e : events) sink.on_event(e);
  }  // destructor closes the file
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t i = 0;
  while (std::getline(in, line)) {
    const auto parsed = from_jsonl(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(*parsed, events[i]);
    ++i;
  }
  EXPECT_EQ(i, events.size());
}

TEST(JsonlSink, ThrowsOnUnopenablePath) {
  EXPECT_THROW(JsonlSink("/no/such/dir/trace.jsonl"), std::runtime_error);
}

}  // namespace
}  // namespace spothost::obs
