#pragma once
// Descendant counting for the "descendant priorities" heuristic (Plimpton et
// al. [15], reproduced in the paper's Section 5.2).
//
// Exact counting of |descendants(v)| is Theta(n*m/64) word operations with
// bitsets. The naive formulation keeps the FULL n x n reachability matrix
// resident (n^2/8 bytes) and streams whole rows through the OR loop — at
// n = 8192 that is an 8 MiB working set that falls out of L2.
// exact_descendant_counts instead processes the matrix in column strips of
// kTileWords * 64 = 512 columns in reverse topological order (DESIGN.md
// §11): one cache line (64 bytes) per node per strip, so the peak extra
// memory is n * tile_width / 8 = 64n bytes (strip buffer, reused across
// strips) regardless of n^2, the per-edge OR touches exactly one scratch
// cache line, and the 8-word OR/popcount loops are branch-free and
// vectorizable. The word-operation count is identical to the naive variant;
// only the memory behaviour changes, so results are bit-identical to
// exact_descendant_counts_reference (the preserved naive implementation,
// kept as a differential oracle).
//
// The estimated variant is Cohen's classic reachability-size estimator:
// assign i.i.d. Exp(1) labels to nodes, propagate the minimum over
// descendants in reverse topological order, repeat r times;
// |desc(v)| ~= (r-1)/sum_of_mins. Almost-linear, preserves the priority
// *order* with high probability, which is all the heuristic needs.
//
// Every counter works on one direction of a TaskGraph and walks its cells in
// dag::topological_order backwards, so each successor is final before its
// predecessors read it. Counts are indexed by cell.

#include <cstdint>
#include <vector>

#include "sweep/task_graph.hpp"
#include "util/rng.hpp"

namespace sweep::dag {

/// Columns per strip, in 64-bit words: 8 words = 512 columns = one 64-byte
/// cache line of scratch per node.
inline constexpr std::size_t kTileWords = 8;

/// Largest DAG the adaptive descendant_counts computes exactly; above this
/// it falls back to the Cohen estimator. Shared with the priority
/// constructors so their exact/estimated split matches bit-for-bit.
inline constexpr std::size_t kDefaultExactThreshold = 1u << 13;

/// Observability for the tiled counter: what a caller (or test) needs to
/// verify the documented memory bound without an allocator shim.
struct TiledCountStats {
  std::size_t strips = 0;  ///< number of (kTileWords * 64)-column strips
  /// Peak extra bytes allocated by the counter beyond its output vector:
  /// exactly one strip buffer of kTileWords 64-bit words per node, reused
  /// across strips — n * tile_width / 8 = 64n bytes per worker, never
  /// O(n^2).
  std::size_t scratch_bytes_per_worker = 0;
};

/// Exact |descendants(v)| (excluding v itself) for every cell of
/// `direction`, computed in (kTileWords * 64)-column strips with a bounded
/// working set (see file comment). Throws std::invalid_argument for graphs
/// with more than `max_nodes` cells (cost guard: work is Theta(n*m/64)
/// regardless of tiling).
std::vector<std::uint64_t> exact_descendant_counts(
    const TaskGraph& graph, std::size_t direction,
    std::size_t max_nodes = 1u << 14, TiledCountStats* stats = nullptr);

/// The preserved naive implementation (full n x n reachability bitset),
/// kept as the differential oracle for the tiled variant. Same contract.
std::vector<std::uint64_t> exact_descendant_counts_reference(
    const TaskGraph& graph, std::size_t direction,
    std::size_t max_nodes = 1u << 14);

/// Cohen estimator with `rounds` independent exponential labelings
/// (rounds >= 2). Returns estimated |descendants(v)| excluding v.
std::vector<double> estimated_descendant_counts(const TaskGraph& graph,
                                                std::size_t direction,
                                                util::Rng& rng,
                                                std::size_t rounds = 12);

/// Adaptive: exact (tiled) when the DAG is small enough, estimated otherwise.
std::vector<double> descendant_counts(
    const TaskGraph& graph, std::size_t direction, util::Rng& rng,
    std::size_t exact_threshold = kDefaultExactThreshold);

/// Adaptive twin routed through exact_descendant_counts_reference; consumes
/// `rng` identically to descendant_counts, so the two agree bit-for-bit.
std::vector<double> descendant_counts_reference(
    const TaskGraph& graph, std::size_t direction, util::Rng& rng,
    std::size_t exact_threshold = kDefaultExactThreshold);

}  // namespace sweep::dag
