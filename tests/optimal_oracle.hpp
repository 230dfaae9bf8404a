#pragma once
// Brute-force optimal sweep-scheduling oracle for TINY instances, used as a
// ground-truth comparator in tests. Exact dynamic program over done-task
// bitmasks: OPT(mask) = 1 + min over nonempty feasible step-sets S of
// OPT(mask | S), where S is a set of ready tasks with at most one task per
// processor. Exponential — keep n*k <= ~16.

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/schedule.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::test {

class OptimalOracle {
 public:
  OptimalOracle(const dag::TaskGraph& graph,
                const core::Assignment& assignment, std::size_t n_processors)
      : n_cells_(graph.n_cells()),
        assignment_(assignment),
        n_processors_(n_processors),
        total_(graph.n_tasks()) {
    if (total_ > 20) throw std::invalid_argument("oracle: instance too large");
    // Each task's predecessors as a mask, derived from the CSR: a task is
    // ready once its mask is inside the done set.
    pred_mask_.assign(total_, 0);
    for (std::size_t t = 0; t < total_; ++t) {
      for (const dag::TaskGraph::Task s : graph.successors(t)) {
        pred_mask_[s] |= Mask{1} << t;
      }
    }
  }

  /// Optimal makespan for the FIXED assignment.
  std::size_t optimal_makespan() { return solve(0); }

  /// Optimal over ALL assignments (enumerates m^n of them) — the true sweep
  /// scheduling OPT. Only for very small n.
  static std::size_t optimal_over_assignments(const dag::TaskGraph& graph,
                                              std::size_t n_processors) {
    const std::size_t n = graph.n_cells();
    std::size_t best = std::numeric_limits<std::size_t>::max();
    core::Assignment assignment(n, 0);
    for (;;) {
      OptimalOracle oracle(graph, assignment, n_processors);
      best = std::min(best, oracle.optimal_makespan());
      // Increment the assignment like an odometer.
      std::size_t digit = 0;
      while (digit < n) {
        if (++assignment[digit] < n_processors) break;
        assignment[digit] = 0;
        ++digit;
      }
      if (digit == n) break;
    }
    return best;
  }

 private:
  using Mask = std::uint32_t;

  std::size_t solve(Mask done) {
    if (done == (Mask{1} << total_) - 1) return 0;
    if (const auto it = memo_.find(done); it != memo_.end()) return it->second;

    // Ready tasks under `done`.
    std::vector<core::TaskId> ready;
    const std::size_t n = n_cells_;
    for (core::TaskId t = 0; t < total_; ++t) {
      if (done & (Mask{1} << t)) continue;
      if ((pred_mask_[t] & ~done) == 0) ready.push_back(t);
    }

    // Enumerate subsets of ready with <= 1 task per processor. Prune with
    // the observation that running MORE tasks never hurts for unit tasks:
    // it suffices to consider maximal per-processor selections — enumerate
    // one choice (or skip... skipping never helps) per processor group.
    std::vector<std::vector<core::TaskId>> by_proc(n_processors_);
    for (core::TaskId t : ready) {
      by_proc[assignment_[core::task_cell(t, n)]].push_back(t);
    }
    std::vector<std::vector<core::TaskId>> groups;
    for (auto& g : by_proc) {
      if (!g.empty()) groups.push_back(std::move(g));
    }

    std::size_t best = std::numeric_limits<std::size_t>::max();
    // Cartesian product over groups (each contributes exactly one task —
    // with unit tasks an idle processor that has ready work never helps).
    std::vector<std::size_t> pick(groups.size(), 0);
    for (;;) {
      Mask step = 0;
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        step |= Mask{1} << groups[gi][pick[gi]];
      }
      best = std::min(best, 1 + solve(done | step));
      std::size_t digit = 0;
      while (digit < groups.size()) {
        if (++pick[digit] < groups[digit].size()) break;
        pick[digit] = 0;
        ++digit;
      }
      if (digit == groups.size()) break;
    }
    memo_[done] = best;
    return best;
  }

  std::size_t n_cells_;
  core::Assignment assignment_;
  std::size_t n_processors_;
  std::size_t total_;
  std::vector<Mask> pred_mask_;  ///< per task: bits of its predecessors
  std::unordered_map<Mask, std::size_t> memo_;
};

}  // namespace sweep::test
