#include "serve/wire.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string_view>

namespace sweep::serve {
namespace {

/// Append-only byte writer (encoders cannot fail).
class Writer {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(T value) {
    append(&value, sizeof(T));
  }
  void put_string(const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_array(const std::vector<T>& values) {
    put(static_cast<std::uint64_t>(values.size()));
    append(values.data(), values.size() * sizeof(T));
  }
  std::vector<std::byte> take() { return std::move(out_); }

 private:
  // resize + memcpy rather than vector::insert of a byte range: GCC 12 at
  // -O3 inlines the insert into encode_response and reports a false
  // -Wstringop-overflow on the 4-byte copy.
  void append(const void* data, std::size_t size) {
    if (size == 0) return;  // data may be null for an empty container
    const std::size_t at = out_.size();
    out_.resize(at + size);
    std::memcpy(out_.data() + at, data, size);
  }

  std::vector<std::byte> out_;
};

/// Bounds-checked byte reader; every decode failure throws WireError.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get(const char* what) {
    if (bytes_.size() - pos_ < sizeof(T)) {
      throw WireError(std::string("wire: truncated ") + what);
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }
  std::string get_string(const char* what) {
    const auto len = get<std::uint32_t>(what);
    if (len > kMaxFrameBytes || bytes_.size() - pos_ < len) {
      throw WireError(std::string("wire: truncated ") + what);
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_array(const char* what) {
    const auto count = get<std::uint64_t>(what);
    if (count > kMaxFrameBytes / sizeof(T) ||
        bytes_.size() - pos_ < count * sizeof(T)) {
      throw WireError(std::string("wire: truncated ") + what);
    }
    std::vector<T> values(static_cast<std::size_t>(count));
    // An empty vector's data() may be null, and memcpy from or to null is
    // undefined even for zero bytes.
    if (count > 0) {
      std::memcpy(values.data(), bytes_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return values;
  }
  /// A message with bytes past its declared fields is malformed, not
  /// forward-compatible — reject it so garbage cannot hide in the tail.
  void expect_end(const char* what) const {
    if (pos_ != bytes_.size()) {
      throw WireError(std::string("wire: trailing bytes after ") + what);
    }
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// Routes one decoded stats entry: namespaced keys (wire.hpp) land in the
/// typed views, everything else stays a plain entry. Purely syntactic on
/// already length-checked strings, so hostile keys (empty names, bogus
/// suffixes, duplicates) degrade to plain entries or overwrites — never a
/// throw beyond allocation, never a read out of bounds. `hist_index` maps
/// histogram name -> position in stats.histograms; the caller owns it so
/// a frame stuffed with millions of distinct hist.* keys stays O(n log n)
/// instead of quadratic.
void lift_stats_entry(StatsResponse& stats,
                      std::map<std::string, std::size_t>& hist_index,
                      std::string key, std::uint64_t value) {
  constexpr std::string_view kGaugePrefix = "gauge.";
  constexpr std::string_view kHistPrefix = "hist.";
  if (key == kStatsVersionKey) {
    stats.proto_version = value;
    return;
  }
  if (key.size() > kGaugePrefix.size() && key.starts_with(kGaugePrefix)) {
    stats.gauges.emplace_back(key.substr(kGaugePrefix.size()),
                              static_cast<std::int64_t>(value));
    return;
  }
  if (key.size() > kHistPrefix.size() && key.starts_with(kHistPrefix)) {
    const std::size_t dot = key.rfind('.');
    if (dot > kHistPrefix.size() && dot != std::string::npos) {
      const std::string name =
          key.substr(kHistPrefix.size(), dot - kHistPrefix.size());
      const std::string_view suffix = std::string_view(key).substr(dot + 1);
      std::uint64_t StatsHistogram::*field = nullptr;
      if (suffix == "count") field = &StatsHistogram::count;
      else if (suffix == "p50") field = &StatsHistogram::p50;
      else if (suffix == "p90") field = &StatsHistogram::p90;
      else if (suffix == "p99") field = &StatsHistogram::p99;
      else if (suffix == "p999") field = &StatsHistogram::p999;
      else if (suffix == "max") field = &StatsHistogram::max;
      if (field != nullptr) {
        auto [it, inserted] =
            hist_index.try_emplace(name, stats.histograms.size());
        if (inserted) {
          StatsHistogram fresh;
          fresh.name = name;
          stats.histograms.push_back(std::move(fresh));
        }
        stats.histograms[it->second].*field = value;
        return;
      }
    }
  }
  stats.entries.emplace_back(std::move(key), value);
}

MsgType decode_type(std::uint32_t raw) {
  if (raw < static_cast<std::uint32_t>(MsgType::kPing) ||
      raw > static_cast<std::uint32_t>(MsgType::kShutdown)) {
    throw WireError("wire: unknown message type " + std::to_string(raw));
  }
  return static_cast<MsgType>(raw);
}

}  // namespace

std::vector<std::byte> encode_request(const Request& request) {
  Writer w;
  w.put(static_cast<std::uint32_t>(request.type));
  switch (request.type) {
    case MsgType::kQuery:
      w.put(static_cast<std::uint32_t>(request.query.scheme));
      w.put(request.query.m);
      w.put(request.query.seed);
      w.put(request.query.partition);
      w.put(static_cast<std::uint8_t>(request.query.want_starts ? 1 : 0));
      break;
    case MsgType::kSwap:
      w.put_string(request.swap.path);
      break;
    default:
      break;  // ping/info/stats/shutdown have empty bodies
  }
  return w.take();
}

Request decode_request(std::span<const std::byte> payload) {
  Reader r(payload);
  Request request;
  request.type = decode_type(r.get<std::uint32_t>("request type"));
  switch (request.type) {
    case MsgType::kQuery: {
      const auto scheme = r.get<std::uint32_t>("scheme");
      if (scheme > static_cast<std::uint32_t>(Scheme::kDescendant)) {
        throw WireError("wire: unknown scheme " + std::to_string(scheme));
      }
      request.query.scheme = static_cast<Scheme>(scheme);
      request.query.m = r.get<std::uint32_t>("m");
      request.query.seed = r.get<std::uint64_t>("seed");
      request.query.partition = r.get<std::int64_t>("partition");
      request.query.want_starts = r.get<std::uint8_t>("want_starts") != 0;
      break;
    }
    case MsgType::kSwap:
      request.swap.path = r.get_string("swap path");
      break;
    default:
      break;
  }
  r.expect_end("request");
  return request;
}

std::vector<std::byte> encode_response(const Response& response) {
  Writer w;
  w.put(response.status);
  w.put(static_cast<std::uint32_t>(response.type));
  if (response.status != 0) {
    w.put_string(response.error);
    return w.take();
  }
  switch (response.type) {
    case MsgType::kInfo:
      w.put_string(response.info.name);
      w.put(response.info.n_cells);
      w.put(response.info.n_directions);
      w.put(response.info.n_edges);
      w.put(response.info.content_hash);
      w.put(response.info.n_partitions);
      w.put(static_cast<std::uint8_t>(response.info.has_descendants ? 1 : 0));
      break;
    case MsgType::kQuery:
      w.put(response.query.makespan);
      w.put(response.query.c1_cross_edges);
      w.put(response.query.c1_total_edges);
      w.put(response.query.c2_total_delay);
      w.put(response.query.c2_max_step_degree);
      w.put(response.query.c2_busy_steps);
      w.put(response.query.schedule_hash);
      w.put_array(response.query.starts);
      break;
    case MsgType::kStats: {
      // Fold the typed views back into namespaced entries (wire.hpp). The
      // plain entries go first, unchanged, so a pre-bump consumer decodes
      // the same pairs it always did; a version-1 response with empty
      // views encodes byte-identically to the pre-bump writer. Non-empty
      // views force the v2 block regardless of the version field —
      // carrying typed telemetry IS speaking v2 — which keeps
      // decode(encode(x)) idempotent.
      const StatsResponse& stats = response.stats;
      const bool v2 = stats.proto_version >= 2 || !stats.gauges.empty() ||
                      !stats.histograms.empty();
      const std::uint64_t extra =
          v2 ? 1 + stats.gauges.size() + stats.histograms.size() * 6 : 0;
      w.put(static_cast<std::uint64_t>(stats.entries.size()) + extra);
      for (const auto& [key, value] : stats.entries) {
        w.put_string(key);
        w.put(value);
      }
      if (v2) {
        w.put_string(kStatsVersionKey);
        w.put(std::max(stats.proto_version, kStatsProtoVersion));
        for (const auto& [name, value] : stats.gauges) {
          w.put_string("gauge." + name);
          w.put(static_cast<std::uint64_t>(value));
        }
        for (const StatsHistogram& h : stats.histograms) {
          const auto put_field = [&](const char* suffix,
                                     std::uint64_t value) {
            w.put_string("hist." + h.name + suffix);
            w.put(value);
          };
          put_field(".count", h.count);
          put_field(".p50", h.p50);
          put_field(".p90", h.p90);
          put_field(".p99", h.p99);
          put_field(".p999", h.p999);
          put_field(".max", h.max);
        }
      }
      break;
    }
    default:
      break;  // ping/swap/shutdown acks carry no body
  }
  return w.take();
}

Response decode_response(std::span<const std::byte> payload) {
  Reader r(payload);
  Response response;
  response.status = r.get<std::uint32_t>("status");
  response.type = decode_type(r.get<std::uint32_t>("response type"));
  if (response.status != 0) {
    response.error = r.get_string("error");
    r.expect_end("error response");
    return response;
  }
  switch (response.type) {
    case MsgType::kInfo:
      response.info.name = r.get_string("name");
      response.info.n_cells = r.get<std::uint64_t>("n_cells");
      response.info.n_directions = r.get<std::uint64_t>("n_directions");
      response.info.n_edges = r.get<std::uint64_t>("n_edges");
      response.info.content_hash = r.get<std::uint64_t>("content_hash");
      response.info.n_partitions = r.get<std::uint64_t>("n_partitions");
      response.info.has_descendants =
          r.get<std::uint8_t>("has_descendants") != 0;
      break;
    case MsgType::kQuery:
      response.query.makespan = r.get<std::uint64_t>("makespan");
      response.query.c1_cross_edges = r.get<std::uint64_t>("c1_cross");
      response.query.c1_total_edges = r.get<std::uint64_t>("c1_total");
      response.query.c2_total_delay = r.get<std::uint64_t>("c2_delay");
      response.query.c2_max_step_degree = r.get<std::uint64_t>("c2_max");
      response.query.c2_busy_steps = r.get<std::uint64_t>("c2_busy");
      response.query.schedule_hash = r.get<std::uint64_t>("schedule_hash");
      response.query.starts = r.get_array<std::uint32_t>("starts");
      break;
    case MsgType::kStats: {
      const auto count = r.get<std::uint64_t>("stats count");
      if (count > kMaxFrameBytes / 12) {  // each entry is >= 12 bytes
        throw WireError("wire: stats count too large");
      }
      response.stats.entries.reserve(static_cast<std::size_t>(count));
      std::map<std::string, std::size_t> hist_index;
      for (std::uint64_t i = 0; i < count; ++i) {
        std::string key = r.get_string("stats key");
        const auto value = r.get<std::uint64_t>("stats value");
        lift_stats_entry(response.stats, hist_index, std::move(key), value);
      }
      break;
    }
    default:
      break;
  }
  r.expect_end("response");
  return response;
}

}  // namespace sweep::serve
