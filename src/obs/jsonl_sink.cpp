#include "obs/jsonl_sink.hpp"

#include <stdexcept>

namespace spothost::obs {

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)),
      out_(owned_.get()) {
  if (!owned_->is_open()) {
    throw std::runtime_error("JsonlSink: cannot open " + path);
  }
}

void JsonlSink::on_event(const TraceEvent& event) {
  line_.clear();
  append_jsonl(line_, event);
  line_ += '\n';
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++written_;
}

void JsonlSink::flush() { out_->flush(); }

}  // namespace spothost::obs
