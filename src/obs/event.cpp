#include "obs/event.hpp"

#include <array>
#include <charconv>
#include <cstdlib>

namespace spothost::obs {

namespace {

constexpr std::array<std::string_view, kEventKindCount> kKindNames{
    "price_change",         "price_crossing",      "bid_placed",
    "spot_request_failed",  "acquisition",         "revocation_warning",
    "migration_begin",      "migration_transfer",  "migration_switchover",
    "migration_abandon",    "market_switch",       "outage_begin",
    "outage_end",           "degraded_end",        "billing_hour_tick",
    "fault_injected",       "retry_scheduled",     "degraded_mode",
};

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
}

void append_double(std::string& out, double v) {
  // Shortest representation that round-trips exactly: deterministic across
  // runs (the byte-identity guarantee) and lossless on parse.
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), res.ptr);
}

void append_int(std::string& out, std::int64_t v) {
  std::array<char, 24> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), res.ptr);
}

void append_uint(std::string& out, std::uint64_t v) {
  std::array<char, 24> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), res.ptr);
}

// --- minimal parser for our own fixed-key-order output ---------------------

bool consume(std::string_view& in, std::string_view token) {
  if (in.substr(0, token.size()) != token) return false;
  in.remove_prefix(token.size());
  return true;
}

bool parse_int(std::string_view& in, std::int64_t& out) {
  const auto res = std::from_chars(in.data(), in.data() + in.size(), out);
  if (res.ec != std::errc{}) return false;
  in.remove_prefix(static_cast<std::size_t>(res.ptr - in.data()));
  return true;
}

bool parse_uint(std::string_view& in, std::uint64_t& out) {
  const auto res = std::from_chars(in.data(), in.data() + in.size(), out);
  if (res.ec != std::errc{}) return false;
  in.remove_prefix(static_cast<std::size_t>(res.ptr - in.data()));
  return true;
}

bool parse_double(std::string_view& in, double& out) {
  const auto res = std::from_chars(in.data(), in.data() + in.size(), out);
  if (res.ec != std::errc{}) return false;
  in.remove_prefix(static_cast<std::size_t>(res.ptr - in.data()));
  return true;
}

bool parse_string(std::string_view& in, std::string& out) {
  if (!consume(in, "\"")) return false;
  out.clear();
  while (!in.empty()) {
    const char c = in.front();
    in.remove_prefix(1);
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (in.empty()) return false;
    const char esc = in.front();
    in.remove_prefix(1);
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (in.size() < 4) return false;
        const std::string hex(in.substr(0, 4));
        in.remove_prefix(4);
        out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated string
}

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return i < kKindNames.size() ? kKindNames[i] : std::string_view{"unknown"};
}

std::optional<EventKind> event_kind_from_string(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) return static_cast<EventKind>(i);
  }
  return std::nullopt;
}

std::string_view code_label(EventKind kind, std::uint8_t c) noexcept {
  switch (kind) {
    case EventKind::kBidPlaced:
    case EventKind::kAcquisition:
      return c == code::kOnDemand ? "on_demand" : "spot";
    case EventKind::kPriceCrossing:
      return c == code::kBelow ? "below" : "above";
    case EventKind::kMigrationBegin:
    case EventKind::kMigrationTransfer:
    case EventKind::kMigrationSwitchover:
      switch (c) {
        case code::kForced: return "forced";
        case code::kPlanned: return "planned";
        case code::kReverse: return "reverse";
        default: return "unknown";
      }
    case EventKind::kMigrationAbandon:
      switch (c) {
        case code::kAbandonPriceRecovered: return "price_recovered";
        case code::kAbandonDestRevoked: return "dest_revoked";
        case code::kAbandonPreempted: return "preempted";
        case code::kAbandonFault: return "fault";
        default: return "unknown";
      }
    case EventKind::kOutageBegin:
      switch (c) {
        case code::kCauseForcedMigration: return "forced_migration";
        case code::kCausePlannedMigration: return "planned_migration";
        case code::kCauseReverseMigration: return "reverse_migration";
        case code::kCauseSpotLoss: return "spot_loss";
        default: return "other";
      }
    case EventKind::kFaultInjected:
      switch (c) {
        case code::kFaultAllocCapacity: return "alloc_insufficient_capacity";
        case code::kFaultAllocTimeout: return "alloc_timeout";
        case code::kFaultWarningDelayed: return "warning_delayed";
        case code::kFaultWarningDropped: return "warning_dropped";
        case code::kFaultLiveCopyAbort: return "live_copy_abort";
        case code::kFaultCheckpointStall: return "checkpoint_stall";
        default: return "unknown";
      }
    case EventKind::kRetryScheduled:
      return c == code::kRetryForcedDest ? "forced_dest" : "acquire";
    case EventKind::kDegradedMode:
      switch (c) {
        case code::kDegradeOnDemandFallback: return "on_demand_fallback";
        case code::kDegradeLiveToCkpt: return "live_to_ckpt";
        case code::kDegradeStallAbsorbed: return "stall_absorbed";
        case code::kDegradeSlowRetry: return "slow_retry";
        default: return "unknown";
      }
    default:
      return {};
  }
}

void append_jsonl(std::string& out, const TraceEvent& e) {
  out += "{\"t\":";
  append_int(out, e.t);
  out += ",\"kind\":\"";
  out += to_string(e.kind);
  out += "\",\"code\":";
  append_uint(out, e.code);
  out += ",\"instance\":";
  append_uint(out, e.instance);
  out += ",\"value\":";
  append_double(out, e.value);
  out += ",\"aux\":";
  append_double(out, e.aux);
  out += ",\"market\":\"";
  append_escaped(out, e.market);
  out += "\",\"note\":\"";
  append_escaped(out, e.note);
  out += "\"}";
}

std::string to_jsonl(const TraceEvent& e) {
  std::string out;
  out.reserve(128 + e.market.size() + e.note.size());
  append_jsonl(out, e);
  return out;
}

std::optional<TraceEvent> from_jsonl(std::string_view line) {
  TraceEvent e;
  std::string kind_name;
  std::uint64_t code_v = 0;
  if (!consume(line, "{\"t\":")) return std::nullopt;
  if (!parse_int(line, e.t)) return std::nullopt;
  if (!consume(line, ",\"kind\":")) return std::nullopt;
  if (!parse_string(line, kind_name)) return std::nullopt;
  const auto kind = event_kind_from_string(kind_name);
  if (!kind) return std::nullopt;
  e.kind = *kind;
  if (!consume(line, ",\"code\":")) return std::nullopt;
  if (!parse_uint(line, code_v) || code_v > 0xff) return std::nullopt;
  e.code = static_cast<std::uint8_t>(code_v);
  if (!consume(line, ",\"instance\":")) return std::nullopt;
  if (!parse_uint(line, e.instance)) return std::nullopt;
  if (!consume(line, ",\"value\":")) return std::nullopt;
  if (!parse_double(line, e.value)) return std::nullopt;
  if (!consume(line, ",\"aux\":")) return std::nullopt;
  if (!parse_double(line, e.aux)) return std::nullopt;
  if (!consume(line, ",\"market\":")) return std::nullopt;
  if (!parse_string(line, e.market)) return std::nullopt;
  if (!consume(line, ",\"note\":")) return std::nullopt;
  if (!parse_string(line, e.note)) return std::nullopt;
  if (!consume(line, "}")) return std::nullopt;
  return e;
}

}  // namespace spothost::obs
