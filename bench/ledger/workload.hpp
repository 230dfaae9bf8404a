#pragma once
// The four workloads, the pipeline stages they share, and the serve-side
// load machinery (daemon child process, open and closed loops, response
// checks).

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/algorithms.hpp"
#include "core/schedule.hpp"
#include "partition/graph.hpp"
#include "serve/wire.hpp"
#include "sweep/artifact.hpp"
#include "sweep/instance.hpp"

namespace ledger {

// ---------------------------------------------------------------- pipeline

/// Generated inputs of a workload: the sweep instance and the mesh's
/// cell-adjacency graph the partitioner reads.
struct Problem {
  sweep::dag::SweepInstance instance;
  sweep::partition::Graph graph;
};

/// Mesh -> per-direction DAGs -> TaskGraph -> adjacency graph, each stage
/// timed into `ledger` (mesh.generate_s, sweep.build_instance_s,
/// sweep.task_graph_s).
Problem build_problem(Ledger& ledger, const std::string& mesh, double scale,
                      std::size_t sn_order, std::uint64_t jitter_seed);

/// Bytes of the TaskGraph arrays (CSR offsets and targets plus the three
/// per-task arrays), computed from the array sizes.
std::size_t graph_bytes(const sweep::dag::TaskGraph& graph);

/// The paper's block size scaled by scale^3, so the block count stays in
/// the paper's regime at reduced mesh scale.
std::size_t scaled_block(std::size_t paper_block, double scale);

/// The processor counts (and the served partitions' part counts) of the
/// serve key mix.
inline constexpr std::uint32_t kServeProcs[2] = {16, 64};

/// The six algorithms of the figure loop, with the per-layer metric that
/// times one run_algorithm call of each.
struct FigAlgorithm {
  sweep::core::Algorithm algorithm;
  const char* metric;
};
const std::vector<FigAlgorithm>& fig_algorithms();

// ------------------------------------------------------------- serve load

/// One artifact the daemon may serve, with the instance it was packed from
/// so responses can be recomputed in process.
struct ServedArtifact {
  std::string path;
  const sweep::dag::SweepInstance* instance = nullptr;
  std::vector<sweep::dag::ArtifactPartition> partitions;
  std::uint64_t content_hash = 0;
};

/// Packs `problem` with partitions of kServeProcs parts and, up to
/// dag::kDefaultExactThreshold cells, exact descendant counts
/// (sweep.descendants_s, partition.blocks_s, sweep.artifact.pack_s,
/// sweep.artifact.load_s).
ServedArtifact pack_served(Ledger& ledger, const Problem& problem,
                           const std::string& path, std::uint64_t seed);

/// A sweep_serve child process. The constructor spawns it and returns once
/// it answers a ping; the destructor shuts it down (or kills it) and waits
/// for it to exit.
class Daemon {
 public:
  Daemon(const Config& config, const std::string& artifact,
         const std::string& tag);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }
  /// Daemon stats frame (stats wire v2).
  [[nodiscard]] sweep::serve::StatsResponse stats() const;
  /// VmHWM of the daemon so far, MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Sends kShutdown and waits; false if the daemon did not exit cleanly.
  bool shutdown();

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// One timed request of a load phase.
struct Outcome {
  sweep::serve::Request request;
  double due = 0.0;   ///< when the generator meant to send it (now_s)
  double sent = 0.0;  ///< when it was written
  double done = 0.0;  ///< when the response was decoded
  bool ok = false;
  sweep::serve::QueryResponse reply;  ///< scalars only (no starts)
  std::size_t connection = 0;
  // Set by assign_epochs().
  std::size_t epoch = 0;       ///< swaps acknowledged before it was sent
  bool overlaps_swap = false;  ///< in flight while a swap was
  bool first_of_key = false;   ///< first query of its key in its epoch
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  ///< queries and swaps, in issue order
  double wall = 0.0;              ///< first due to last done
};

/// Closed loop: `connections` clients, each sending its next query once
/// the previous one is answered, until every query in `queries` is done.
PhaseResult closed_loop(const Daemon& daemon,
                        const std::vector<sweep::serve::Request>& queries,
                        std::size_t connections);

/// Open loop: `requests` sent at their due times (seconds from the phase
/// start), split round-robin over `connections` clients with their own
/// connection each. A request whose connection is still busy is sent late;
/// its latency still counts from its due time.
PhaseResult open_loop(const Daemon& daemon,
                      const std::vector<sweep::serve::Request>& requests,
                      const std::vector<double>& due,
                      std::size_t connections);

/// `count` queries with distinct keys: the schemes (level, random delay and,
/// when `descendants`, descendant) in turn, m alternating over kServeProcs,
/// and every 8th query on an embedded partition. Seeds count up from
/// `first_seed`, so every key is new.
std::vector<sweep::serve::Request> distinct_queries(std::size_t count,
                                                    std::uint64_t first_seed,
                                                    bool descendants);

/// A kSwap request to `path`.
sweep::serve::Request swap_request(const std::string& path);

/// Poisson arrival times of `n` requests at `rate` per second.
std::vector<double> poisson_arrivals(std::size_t n, double rate,
                                     std::uint64_t seed);

/// Checks served schedule hashes against an in-process recomputation of the
/// daemon's recipe (assignment, priorities, jobs=1 list_schedule), timing
/// the priority builders and the engine into `ledger`. expect() queues a
/// check; finish() recomputes each distinct (artifact, key) once, in
/// parallel, and counts every mismatch as a gate failure.
class Verifier {
 public:
  Verifier(Ledger& ledger, Gate& gate) : ledger_(ledger), gate_(gate) {}
  /// `live` lists the artifacts that may have answered (one, or both when
  /// the request overlapped a swap).
  void expect(const sweep::serve::QueryRequest& query, std::uint64_t hash,
              std::vector<const ServedArtifact*> live, std::int64_t parent);
  void finish();
  [[nodiscard]] std::size_t checked() const { return checked_; }

 private:
  struct Pending {
    sweep::serve::QueryRequest query;
    std::uint64_t hash = 0;
    std::vector<const ServedArtifact*> live;
    std::int64_t parent = 0;
  };
  std::uint64_t expected(const ServedArtifact& artifact,
                         const sweep::serve::QueryRequest& query,
                         std::int64_t parent);
  Ledger& ledger_;
  Gate& gate_;
  std::vector<Pending> pending_;
  std::size_t checked_ = 0;
};

/// Marks every query of `phases` (in the order they ran) with its swap
/// epoch, whether it overlapped a swap, and whether it was the first of its
/// key in its epoch, by send time. A swap empties the cache, so a first
/// query is one the daemon computed; the rest were hits or waited on the
/// same key's computation (and, after an eviction, the odd miss).
void assign_epochs(const std::vector<PhaseResult*>& phases);

/// Every request of the phase counts as attempted in the gate, and failed
/// or refused ones as failed.
void gate_outcomes(const PhaseResult& phase, Gate& gate);

/// Latency (ms, from due time) of the phase's ok queries that were the
/// first of their key in their epoch: the ones the daemon computed.
std::vector<double> computed_latencies_ms(const PhaseResult& phase);

/// Records the loadgen.* metrics of the two open-loop phases: generator
/// health at `lo`, computed-query latency at `hi`.
void record_loadgen(Ledger& ledger, const PhaseResult& lo,
                    const PhaseResult& hi);

/// Reads the daemon's phase histograms and cache counters into `ledger`.
void record_daemon_stats(Ledger& ledger, const Daemon& daemon);

/// Checks sampled responses of `phases`, after assign_epochs() (every 25th
/// query, and the first response per key after each swap ack), against the
/// artifact that must have been live; `artifacts[0]` is live first, each
/// swap flips to the other one.
void verify_phases(Verifier& verifier, const std::vector<PhaseResult*>& phases,
                   const std::vector<const ServedArtifact*>& artifacts);

// --------------------------------------------------------------- workloads

/// Runs the set-up `reps` times, timing each into e.setup_s, and keeps the
/// last result; the previous one is torn down, and the host speed sampled,
/// before the clock starts.
template <typename Build>
auto set_up(std::size_t reps, EndToEndSamples& e, Build&& build) {
  decltype(build()) kept;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    kept = {};
    e.sample_host_speed();
    const double t0 = now_s();
    kept = build();
    e.setup_s.push_back(now_s() - t0);
  }
  return kept;
}

/// Each returns the end-to-end metrics, or in traced runs the per-layer ones.
Metrics run_paper_sweep(const Config& config, Gate& gate);
Metrics run_fig_trials(const Config& config, Gate& gate);
Metrics run_serve(const Config& config, Gate& gate, bool hot_swap);

// -------------------------------------------------------------- per-layer

/// Names and units of every per-layer metric, in emission order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Traced runs: calls every layer the workload loop did not sample, on the
/// workload's own problem with `m` processors, so each traced run reports
/// every per-layer metric.
void probe_layers(const Config& config, Ledger& ledger, Gate& gate,
                  const Problem& problem, std::size_t m, std::uint64_t seed);

/// The per-layer metrics from the ledger's samples.
Metrics per_layer_report(const Ledger& ledger);

}  // namespace ledger
