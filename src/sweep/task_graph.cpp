#include "sweep/task_graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace sweep::dag {

void TaskGraph::bind_owned() {
  offsets_ = owned_offsets_;
  targets_ = owned_targets_;
  indegree_ = owned_indegree_;
  level_ = owned_level_;
  cell_ = owned_cell_;
}

TaskGraph::TaskGraph(const TaskGraph& other)
    : n_cells_(other.n_cells_),
      n_directions_(other.n_directions_),
      borrowed_(other.borrowed_),
      owned_offsets_(other.owned_offsets_),
      owned_targets_(other.owned_targets_),
      owned_indegree_(other.owned_indegree_),
      owned_level_(other.owned_level_),
      owned_cell_(other.owned_cell_),
      max_level_(other.max_level_),
      max_indegree_(other.max_indegree_) {
  // A borrowing graph keeps pointing at the external memory; an owning one
  // must rebind to its freshly copied vectors.
  if (borrowed_) {
    offsets_ = other.offsets_;
    targets_ = other.targets_;
    indegree_ = other.indegree_;
    level_ = other.level_;
    cell_ = other.cell_;
  } else {
    bind_owned();
  }
}

TaskGraph& TaskGraph::operator=(const TaskGraph& other) {
  if (this != &other) {
    TaskGraph copy(other);
    *this = std::move(copy);
  }
  return *this;
}

TaskGraph::TaskGraph(TaskGraph&& other) noexcept
    : n_cells_(other.n_cells_),
      n_directions_(other.n_directions_),
      borrowed_(other.borrowed_),
      owned_offsets_(std::move(other.owned_offsets_)),
      owned_targets_(std::move(other.owned_targets_)),
      owned_indegree_(std::move(other.owned_indegree_)),
      owned_level_(std::move(other.owned_level_)),
      owned_cell_(std::move(other.owned_cell_)),
      // Moving a vector preserves its heap buffer, so the source's views stay
      // valid for the moved-to object in both modes.
      offsets_(other.offsets_),
      targets_(other.targets_),
      indegree_(other.indegree_),
      level_(other.level_),
      cell_(other.cell_),
      max_level_(other.max_level_),
      max_indegree_(other.max_indegree_) {
  other.n_cells_ = 0;
  other.n_directions_ = 0;
  other.borrowed_ = false;
  // clear() never allocates, keeping the move ctor genuinely noexcept; the
  // moved-from graph is empty (n_tasks() == 0), not the {0}-sentinel shape.
  other.owned_offsets_.clear();
  other.bind_owned();
  other.max_level_ = 0;
  other.max_indegree_ = 0;
}

TaskGraph& TaskGraph::operator=(TaskGraph&& other) noexcept {
  if (this != &other) {
    n_cells_ = other.n_cells_;
    n_directions_ = other.n_directions_;
    borrowed_ = other.borrowed_;
    owned_offsets_ = std::move(other.owned_offsets_);
    owned_targets_ = std::move(other.owned_targets_);
    owned_indegree_ = std::move(other.owned_indegree_);
    owned_level_ = std::move(other.owned_level_);
    owned_cell_ = std::move(other.owned_cell_);
    offsets_ = other.offsets_;
    targets_ = other.targets_;
    indegree_ = other.indegree_;
    level_ = other.level_;
    cell_ = other.cell_;
    max_level_ = other.max_level_;
    max_indegree_ = other.max_indegree_;
    other.n_cells_ = 0;
    other.n_directions_ = 0;
    other.borrowed_ = false;
    other.owned_offsets_.clear();
    other.owned_targets_.clear();
    other.owned_indegree_.clear();
    other.owned_level_.clear();
    other.owned_cell_.clear();
    other.bind_owned();
    other.max_level_ = 0;
    other.max_indegree_ = 0;
  }
  return *this;
}

TaskGraph TaskGraph::build(std::size_t n_cells,
                           const std::vector<SweepDag>& dags) {
  const std::size_t k = dags.size();
  const std::size_t total = n_cells * k;
  constexpr std::size_t kMaxIndex =
      std::numeric_limits<std::uint32_t>::max() - 1;
  if (total > kMaxIndex) {
    throw std::invalid_argument("TaskGraph: too many tasks for 32-bit ids");
  }
  std::size_t total_edges = 0;
  for (const SweepDag& g : dags) total_edges += g.n_edges();
  if (total_edges > kMaxIndex) {
    throw std::invalid_argument("TaskGraph: too many edges for 32-bit offsets");
  }

  TaskGraph tg;
  tg.n_cells_ = n_cells;
  tg.n_directions_ = k;
  tg.owned_offsets_.assign(total + 1, 0);
  tg.owned_targets_.resize(total_edges);
  tg.owned_indegree_.resize(total);
  tg.owned_level_.resize(total);
  tg.owned_cell_.resize(total);

  std::size_t cursor = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const SweepDag& g = dags[i];
    const std::vector<std::uint32_t> lv = g.levels();
    const std::size_t base = i * n_cells;
    for (std::size_t v = 0; v < n_cells; ++v) {
      const std::size_t t = base + v;
      tg.owned_offsets_[t] = static_cast<std::uint32_t>(cursor);
      for (NodeId w : g.successors(static_cast<NodeId>(v))) {
        tg.owned_targets_[cursor++] = static_cast<Task>(base + w);
        ++tg.owned_indegree_[base + w];
      }
      tg.owned_level_[t] = lv[v];
      tg.owned_cell_[t] = static_cast<std::uint32_t>(v);
      tg.max_level_ = std::max(tg.max_level_, lv[v]);
    }
  }
  tg.owned_offsets_[total] = static_cast<std::uint32_t>(cursor);
  for (const std::uint32_t d : tg.owned_indegree_) {
    tg.max_indegree_ = std::max(tg.max_indegree_, d);
  }
  tg.bind_owned();
  return tg;
}

std::vector<NodeId> topological_order(const TaskGraph& graph,
                                     std::size_t direction) {
  if (direction >= graph.n_directions()) {
    throw std::out_of_range("topological_order: direction out of range");
  }
  const std::size_t n = graph.n_cells();
  const std::size_t base = direction * n;
  const std::span<const std::uint32_t> indegree =
      graph.indegrees().subspan(base, n);
  std::vector<std::uint32_t> remaining(indegree.begin(), indegree.end());
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> stack;
  for (NodeId v = 0; v < n; ++v) {
    if (remaining[v] == 0) stack.push_back(v);
  }
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    order.push_back(v);
    for (const TaskGraph::Task s : graph.successors(base + v)) {
      const NodeId w = static_cast<NodeId>(s - base);
      if (--remaining[w] == 0) stack.push_back(w);
    }
  }
  if (order.size() != n) {
    throw std::logic_error("topological_order: graph has a cycle");
  }
  return order;
}

TaskGraph TaskGraph::from_views(std::size_t n_cells, std::size_t n_directions,
                                std::span<const std::uint32_t> offsets,
                                std::span<const Task> targets,
                                std::span<const std::uint32_t> indegree,
                                std::span<const std::uint32_t> level,
                                std::span<const std::uint32_t> cell,
                                std::uint32_t max_level,
                                std::uint32_t max_indegree) {
  const std::size_t total = n_cells * n_directions;
  if (offsets.size() != total + 1 || indegree.size() != total ||
      level.size() != total || cell.size() != total) {
    throw std::invalid_argument("TaskGraph::from_views: array sizes disagree "
                                "with n_cells * n_directions");
  }
  if (!offsets.empty() && offsets.back() != targets.size()) {
    throw std::invalid_argument(
        "TaskGraph::from_views: offsets do not end at targets.size()");
  }
  TaskGraph tg;
  tg.n_cells_ = n_cells;
  tg.n_directions_ = n_directions;
  tg.borrowed_ = true;
  tg.offsets_ = offsets;
  tg.targets_ = targets;
  tg.indegree_ = indegree;
  tg.level_ = level;
  tg.cell_ = cell;
  tg.max_level_ = max_level;
  tg.max_indegree_ = max_indegree;
  return tg;
}

}  // namespace sweep::dag
