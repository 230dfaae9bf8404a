#include "sweep/instance_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sweep::dag {
namespace {

// Version history:
//   1 — name stored as a single >> token. Names with whitespace broke the
//       round trip (the loader consumed only the first word and then
//       misparsed the shape line); still accepted on load for old files.
//   2 — name stored length-prefixed ("name <bytes> <raw name>"), so any
//       byte sequence round-trips; k == 0 accepted on load (symmetric with
//       save, which always wrote it).
constexpr int kVersion = 2;

/// Upper bound on a stored name; a hostile length prefix must not drive a
/// multi-GB string allocation.
constexpr std::size_t kMaxNameBytes = 1u << 16;

/// Task-id / edge-offset ceiling shared with TaskGraph::build (32-bit ids).
constexpr std::uint64_t kMaxIndex =
    std::numeric_limits<std::uint32_t>::max() - 1;

/// Edge lists grow incrementally from what the stream actually contains;
/// this only caps how much we pre-reserve from the untrusted header count.
constexpr std::uint64_t kReserveCap = 1u << 20;

}  // namespace

void save_instance(const SweepInstance& instance, std::ostream& out) {
  out << "sweepinst " << kVersion << "\n";
  const std::string& raw = instance.name();
  const std::string name = raw.empty() ? "unnamed" : raw;
  out << "name " << name.size() << ' ' << name << "\n";
  const TaskGraph& graph = instance.task_graph();
  const std::size_t n = graph.n_cells();
  out << n << ' ' << graph.n_directions() << "\n";
  for (std::size_t i = 0; i < graph.n_directions(); ++i) {
    const std::size_t base = i * n;
    out << graph.offsets()[base + n] - graph.offsets()[base] << "\n";
    for (std::size_t u = 0; u < n; ++u) {
      for (const TaskGraph::Task v : graph.successors(base + u)) {
        out << u << ' ' << v - base << "\n";
      }
    }
  }
}

void save_instance(const SweepInstance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_instance: cannot open " + path);
  save_instance(instance, out);
}

SweepInstance load_instance(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "sweepinst" || version < 1 ||
      version > kVersion) {
    throw std::runtime_error("load_instance: bad header");
  }
  std::string key;
  if (!(in >> key) || key != "name") {
    throw std::runtime_error("load_instance: expected 'name'");
  }
  std::string name;
  if (version == 1) {
    // Legacy single-token name (whitespace was never representable in v1).
    if (!(in >> name)) {
      throw std::runtime_error("load_instance: truncated name");
    }
  } else {
    std::uint64_t name_bytes = 0;
    if (!(in >> name_bytes) || name_bytes > kMaxNameBytes) {
      throw std::runtime_error("load_instance: bad name length");
    }
    if (in.get() == std::char_traits<char>::eof()) {
      throw std::runtime_error("load_instance: truncated name");
    }
    name.resize(static_cast<std::size_t>(name_bytes));
    if (name_bytes > 0 &&
        !in.read(name.data(), static_cast<std::streamsize>(name_bytes))) {
      throw std::runtime_error("load_instance: truncated name");
    }
  }
  std::uint64_t n = 0;
  std::uint64_t k = 0;
  if (!(in >> n >> k)) {
    throw std::runtime_error("load_instance: bad shape line");
  }
  // Same ceiling TaskGraph::build enforces: n node ids and n*k task ids must
  // fit 32 bits (overflow-safe formulation — n * k itself may wrap u64).
  if (n > kMaxIndex || (k != 0 && n != 0 && k > kMaxIndex / n)) {
    throw std::runtime_error("load_instance: instance too large for 32-bit ids");
  }
  std::vector<SweepDag> dags;
  dags.reserve(static_cast<std::size_t>(k));
  std::uint64_t total_edges = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    std::uint64_t edges = 0;
    if (!(in >> edges)) throw std::runtime_error("load_instance: missing edge count");
    // The summed count is capped too: TaskGraph::build would reject it with
    // an invalid_argument from the SweepInstance constructor.
    if (edges > kMaxIndex - total_edges) {
      throw std::runtime_error("load_instance: edge count too large");
    }
    total_edges += edges;
    // The declared count caps the loop, but memory grows only with edges
    // actually present in the stream — a hostile header claiming 2^32 edges
    // over a 3-line file fails on the first missing edge, not in operator new.
    std::vector<std::pair<NodeId, NodeId>> edge_list;
    edge_list.reserve(static_cast<std::size_t>(std::min(edges, kReserveCap)));
    for (std::uint64_t e = 0; e < edges; ++e) {
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      if (!(in >> u >> v)) {
        throw std::runtime_error("load_instance: truncated edge list");
      }
      if (u >= n || v >= n) {
        throw std::runtime_error("load_instance: edge endpoint out of range");
      }
      edge_list.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
    dags.emplace_back(static_cast<std::size_t>(n), edge_list);
    // SweepDag does not check acyclicity; a cycle left in would surface as
    // the logic_error SweepDag::levels throws in the SweepInstance
    // constructor.
    if (!dags.back().is_acyclic()) {
      throw std::runtime_error("load_instance: direction " +
                               std::to_string(i) + " has a cycle");
    }
  }
  return SweepInstance(static_cast<std::size_t>(n), std::move(dags), name);
}

SweepInstance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_instance: cannot open " + path);
  return load_instance(in);
}

}  // namespace sweep::dag
