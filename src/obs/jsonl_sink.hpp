// JSONL file/stream sink: one event per line in the stable encoding of
// obs::to_jsonl, for offline analysis (jq, pandas, grep). Because the
// encoding is deterministic and timestamps are sim-time, two runs with the
// same seed write byte-identical files.
#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "obs/sink.hpp"

namespace spothost::obs {

class JsonlSink final : public TraceSink {
 public:
  /// Writes to a stream owned by the caller (must outlive the sink).
  explicit JsonlSink(std::ostream& out);

  /// Opens (truncates) `path` and writes to it; throws on open failure.
  explicit JsonlSink(const std::string& path);

  void on_event(const TraceEvent& event) override;
  void flush() override;

  [[nodiscard]] std::uint64_t events_written() const noexcept { return written_; }

 private:
  std::unique_ptr<std::ofstream> owned_;  ///< set when constructed from a path
  std::ostream* out_;
  std::string line_;  ///< reused encode buffer: one write per event
  std::uint64_t written_ = 0;
};

}  // namespace spothost::obs
