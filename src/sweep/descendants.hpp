#pragma once
// Descendant counting for the "descendant priorities" heuristic (Plimpton et
// al. [15], reproduced in the paper's Section 5.2).
//
// Exact counting of |descendants(v)| is Theta(n*m/64) word operations with
// bitsets. The naive formulation keeps the FULL n x n reachability matrix
// resident (n^2/8 bytes) and streams whole rows through the OR loop — at
// n = 8192 that is an 8 MiB working set that falls out of L2.
// exact_descendant_counts instead numbers the cells by position in
// dag::topological_order and processes the matrix in column strips of 512
// positions (DESIGN.md §11): one cache line (64 bytes) per node per strip,
// so the strip buffer, reused across strips, holds 64n bytes regardless of
// n^2, and the per-edge OR touches exactly one scratch cache line. A row
// reaches only later positions, so strip [c0, c1) walks only the rows below
// c1: about half the row visits of a full walk. The 8-word OR loop is
// branch-free; each popcount is one POPCNT instruction when the build
// targets it (the top-level CMakeLists adds -mpopcnt on x86-64), and a call
// into libgcc's software popcount otherwise. Results are bit-identical to
// exact_descendant_counts_reference (the naive full-matrix closure, kept as
// the tiled counter's differential oracle).
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

/// Largest instance whose descendant_priorities use exact counts; above
/// this they use the Cohen estimator.
inline constexpr std::size_t kDefaultExactThreshold = 1u << 13;

/// Exact |descendants(v)| (excluding v itself) for every cell of
/// `direction`, computed in 512-column strips with a bounded working set
/// (see file comment). Throws std::out_of_range if `direction` >=
/// graph.n_directions(). The work is Theta(n*m/64) whatever the tiling.
/// Obs counters: `descendants.tiled.strips` (strips walked) and
/// `descendants.tiled.rows` (rows visited, summed over strips).
std::vector<std::uint64_t> exact_descendant_counts(const TaskGraph& graph,
                                                   std::size_t direction);

/// The naive implementation (full n x n reachability bitset), the
/// differential oracle for the tiled variant. Same contract.
std::vector<std::uint64_t> exact_descendant_counts_reference(
    const TaskGraph& graph, std::size_t direction);

/// Cohen estimator with `rounds` independent exponential labelings
/// (rounds >= 2). Returns estimated |descendants(v)| excluding v.
std::vector<double> estimated_descendant_counts(const TaskGraph& graph,
                                                std::size_t direction,
                                                util::Rng& rng,
                                                std::size_t rounds = 12);

}  // namespace sweep::dag
