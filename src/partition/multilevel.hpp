#pragma once
// Multilevel k-way graph partitioner — the from-scratch METIS substitute
// (DESIGN.md, substitution table). Pipeline per bisection:
//
//   coarsen (heavy-edge matching)  ->  initial partition (greedy graph
//   growing, best of several seeds)  ->  uncoarsen + boundary FM refinement
//
// k-way partitions come from recursive bisection with proportional weight
// targets, so any k (not just powers of two) is supported — the paper's
// experiments sweep block counts derived from block sizes 64/128/256.
//
// Parallelism (DESIGN.md §11): the two branches of every recursive bisection
// are independent subproblems over disjoint vertex sets, so they run as
// thread-pool tasks. Determinism is preserved by seeding every subproblem
// from its position in the bisection tree — node `id` (root 1, children
// 2*id and 2*id+1) draws from util::split_seed(options.seed, id) — instead
// of threading one Rng through the recursion. Within a subproblem the
// coarsening/matching visit order is fixed by that stream, so cuts are
// bit-identical for any `jobs`.

#include <cstdint>

#include "partition/graph.hpp"

namespace sweep::partition {

struct MultilevelOptions {
  std::size_t n_parts = 2;
  double balance_tolerance = 1.05;  ///< max part weight vs. proportional target
  std::size_t coarsest_size = 96;   ///< stop coarsening below this many vertices
  std::size_t initial_tries = 6;    ///< greedy-graph-growing restarts
  std::size_t fm_passes = 6;        ///< refinement passes per level
  std::uint64_t seed = 12345;
  /// Bisection-branch fan-out width: 0 = all pool workers, 1 = serial.
  /// The produced partition is byte-identical for any value.
  std::size_t jobs = 0;
};

/// Partitions `graph` into options.n_parts blocks (ids 0..n_parts-1),
/// running independent bisection branches on the global thread pool.
Partition multilevel_partition(const Graph& graph,
                               const MultilevelOptions& options);

/// Convenience used by the paper's experiments: partition into
/// ceil(n / block_size) blocks of ~block_size cells each.
Partition partition_into_blocks(const Graph& graph, std::size_t block_size,
                                MultilevelOptions options = {});

}  // namespace sweep::partition
