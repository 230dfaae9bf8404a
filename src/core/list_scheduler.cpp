#include "core/list_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "sweep/task_graph.hpp"
#include "util/arena.hpp"

namespace sweep::core {
namespace {

using Task32 = dag::TaskGraph::Task;

// Eligibility limits for the slot-map ready queues (the fast path).
// Level-derived priorities span at most depth + k values, which is tiny;
// descendant counts span up to n and fall back to the heap. The range and
// total-bucket bounds cap the per-call histogram at (range + 1) * m
// counters; the indegree and slot bounds come from the packed
// (slot << 8) | indegree representation below.
constexpr std::uint64_t kMaxBucketRange = (1u << 16) - 1;
constexpr std::uint64_t kMaxTotalBuckets = 1u << 20;
constexpr std::uint32_t kMaxPackedIndegree = 0xFF;
constexpr std::uint32_t kMaxPackedSlots = 1u << 24;

/// Per-processor binary min-heaps keyed by (priority, task id) — the
/// general fallback for arbitrary 64-bit priorities.
struct HeapReadyQueues {
  using Entry = std::pair<std::int64_t, Task32>;
  std::vector<std::priority_queue<Entry, std::vector<Entry>, std::greater<>>>
      heaps;

  explicit HeapReadyQueues(std::size_t n_processors) : heaps(n_processors) {}

  void push(std::size_t p, std::int64_t priority, Task32 t) {
    heaps[p].push({priority, t});
  }
  Task32 pop(std::size_t p) {
    const Task32 t = heaps[p].top().second;
    heaps[p].pop();
    return t;
  }
  [[nodiscard]] bool empty(std::size_t p) const { return heaps[p].empty(); }
};

/// Heap-path per-task hot state: the engine touches a task's remaining
/// predecessor count on every incoming edge, and its processor + priority
/// when the count hits zero; packing them into one record costs one
/// cache-line touch where three scattered arrays (indegree, cell ->
/// assignment, priorities) cost up to three.
struct HeapRec {
  std::uint32_t indegree;
  std::uint32_t proc;
  std::int64_t prio;
};

/// The generic engine. Semantics are identical to list_schedule_reference;
/// the differences are the flat-CSR successor walk and the packed records.
/// kGated compiles the release-time / cross-message-delay machinery out
/// entirely for the common ungated call.
template <bool kGated>
Schedule run_heap_engine(const dag::TaskGraph& tg, const Assignment& assignment,
                         std::size_t n_processors,
                         const ListScheduleOptions& options,
                         HeapReadyQueues& ready, std::vector<HeapRec>& rec) {
  SWEEP_OBS_SPAN("engine.heap.run");
  const std::size_t total = tg.n_tasks();
  Schedule schedule(tg.n_cells(), tg.n_directions(), n_processors, assignment);

  std::vector<char> active_flag(n_processors, 0);
  std::vector<ProcessorId> active;
  active.reserve(n_processors);

  auto push_ready = [&](Task32 t) {
    const std::size_t p = rec[t].proc;
    ready.push(p, rec[t].prio, t);
    if (!active_flag[p]) {
      active_flag[p] = 1;
      active.push_back(static_cast<ProcessorId>(p));
    }
  };

  // Gated-only state: tasks whose predecessors are done but whose release
  // (or cross-processor message) has not yet come due, keyed by due time.
  using Release = std::pair<TimeStep, Task32>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> pending;
  const TimeStep* release =
      options.release_times.empty() ? nullptr : options.release_times.data();
  std::vector<TimeStep> earliest;
  if (kGated && options.cross_message_delay > 0) earliest.assign(total, 0);

  auto enqueue_ready = [&](Task32 t, TimeStep now) {
    if constexpr (kGated) {
      TimeStep rel = release != nullptr ? release[t] : 0;
      if (!earliest.empty()) rel = std::max(rel, earliest[t]);
      if (rel > now) {
        pending.push({rel, t});
        return;
      }
    }
    push_ready(t);
  };

  for (Task32 t = 0; t < total; ++t) {
    if (rec[t].indegree == 0) enqueue_ready(t, 0);
  }

  std::size_t done = 0;
  std::vector<Task32> finished;
  finished.reserve(n_processors);
  std::vector<ProcessorId> still_active;
  still_active.reserve(n_processors);

  TimeStep now = 0;
  while (done < total) {
    if constexpr (kGated) {
      // Releases that have come due.
      while (!pending.empty() && pending.top().first <= now) {
        const Task32 task = pending.top().second;
        pending.pop();
        push_ready(task);
      }
      if (active.empty()) {
        if (pending.empty()) {
          throw std::logic_error(
              "list_schedule: deadlock — instance DAG has a cycle");
        }
        now = pending.top().first;
        continue;
      }
    } else {
      if (active.empty()) {
        throw std::logic_error(
            "list_schedule: deadlock — instance DAG has a cycle");
      }
    }

    // Each active processor runs its best ready task this step.
    finished.clear();
    still_active.clear();
    for (ProcessorId p : active) {
      const Task32 task = ready.pop(p);
      schedule.set_start(task, now);
      finished.push_back(task);
      if (ready.empty(p)) {
        active_flag[p] = 0;
      } else {
        still_active.push_back(p);
      }
    }
    active.swap(still_active);
    done += finished.size();

    // Newly ready successors become available from now+1 (or their release;
    // or now+1+c if the message must cross processors).
    for (Task32 task : finished) {
      for (Task32 succ : tg.successors(task)) {
        if constexpr (kGated) {
          if (!earliest.empty() && rec[succ].proc != rec[task].proc) {
            earliest[succ] = std::max(earliest[succ],
                                      now + 1 + options.cross_message_delay);
          }
        }
        if (--rec[succ].indegree == 0) enqueue_ready(succ, now + 1);
      }
    }
    ++now;
  }
  SWEEP_OBS_COUNTER_ADD("engine.heap.runs", 1);
  SWEEP_OBS_COUNTER_ADD("engine.pops", done);
  SWEEP_OBS_COUNTER_ADD("engine.steps", now);
  if (now > 0) {
    SWEEP_OBS_OBSERVE("engine.occupancy",
                      static_cast<double>(done) /
                          (static_cast<double>(now) *
                           static_cast<double>(n_processors)));
  }
  return schedule;
}

/// Per-thread scratch for the slot engine. list_schedule is called in tight
/// loops (trial fan-outs run thousands of schedules per thread); reusing the
/// large per-call lanes instead of reallocating them avoids ~1MB of
/// mmap/page-zeroing traffic per call. The hot lanes (packed, task_at,
/// bitmap, hint, queued, active_flag) live as a structure-of-arrays in one
/// 64-byte-aligned arena — each lane starts on its own cache line and the
/// per-call carve-out is free once the arena is warm. Only bucket_next stays
/// a vector: the histogram that sizes the slot space must run before the
/// arena can be reserved. Lanes are either zero-filled per call (bitmap,
/// queued, active_flag) or fully overwritten before use (packed; task_at and
/// hint are only read at slots / processors the current call populated).
struct SlotScratch {
  std::vector<std::uint32_t> bucket_next;
  util::Arena arena;
};

SlotScratch& slot_scratch() {
  thread_local SlotScratch scratch;
  return scratch;
}

/// The slot-map engine: the fast path for bounded-small-integer priorities.
///
/// Every task is assigned a static SLOT, dense within its processor's padded
/// region: slots are ordered by (processor, rebased priority, task id), and
/// each processor's region starts at p << log2r (r = padded region size, a
/// power of two), so the processor of a slot is slot >> log2r. The ready set
/// is then a single bitmap over slots, and:
///   push  = set the task's slot bit (plus per-processor hint/count upkeep);
///           no random loads — the slot rides in the packed indegree word.
///   pop   = find-first-set from the processor's hint; the lowest live slot
///           IS the (priority, task id) minimum, so this reproduces the
///           reference heap order bit-for-bit with ~2 word reads + ctz.
/// The per-task word packs (slot << 8) | remaining_indegree, so the edge
/// walk's decrement also delivers the slot of a newly-ready task for free.
/// Requires max indegree <= 255 and m << log2r < 2^24 (checked; the caller
/// falls back to the heap engine when this returns nullopt).
template <bool kGated>
std::optional<Schedule> run_slot_engine(const dag::TaskGraph& tg,
                                        const Assignment& assignment,
                                        std::size_t n_processors,
                                        const ListScheduleOptions& options,
                                        std::int64_t min_priority,
                                        std::size_t width) {
  const std::size_t total = tg.n_tasks();
  const std::uint32_t* indeg = tg.indegrees().data();
  const std::uint32_t* cell = tg.cells().data();
  const std::int64_t* priority =
      options.priorities.empty() ? nullptr : options.priorities.data();

  obs::PhaseSpan build_phase("engine.slot.build");
  SlotScratch& scratch = slot_scratch();

  // Pass 1: per-(processor, priority) histogram.
  scratch.bucket_next.assign(n_processors * width, 0);
  std::uint32_t* bucket_next = scratch.bucket_next.data();
  for (std::size_t t = 0; t < total; ++t) {
    const std::size_t p = assignment[cell[t]];
    const std::size_t b =
        priority != nullptr
            ? static_cast<std::size_t>(priority[t] - min_priority)
            : 0;
    ++bucket_next[p * width + b];
  }
  std::size_t max_per_proc = 64;  // at least one bitmap word per processor
  for (std::size_t p = 0; p < n_processors; ++p) {
    std::size_t load = 0;
    for (std::size_t b = 0; b < width; ++b) load += bucket_next[p * width + b];
    max_per_proc = std::max(max_per_proc, load);
  }
  const auto log2r =
      static_cast<std::uint32_t>(std::bit_width(max_per_proc - 1));
  const std::size_t n_slots = n_processors << log2r;
  if (n_slots > kMaxPackedSlots) return std::nullopt;

  // One reservation covers every lane of this call; the allocs below are
  // cursor bumps into the warm block.
  util::Arena& arena = scratch.arena;
  arena.reserve(util::Arena::lane_bytes<std::uint32_t>(total) +
                util::Arena::lane_bytes<Task32>(n_slots) +
                util::Arena::lane_bytes<std::uint64_t>(n_slots / 64 + 1) +
                util::Arena::lane_bytes<std::uint32_t>(n_processors) * 2 +
                util::Arena::lane_bytes<char>(n_processors));

  // Exclusive scan, in place: bucket_next[pb] becomes the next free slot of
  // bucket pb, starting each processor's run at its padded region base.
  for (std::size_t p = 0; p < n_processors; ++p) {
    auto acc = static_cast<std::uint32_t>(p << log2r);
    for (std::size_t b = 0; b < width; ++b) {
      const std::uint32_t count = bucket_next[p * width + b];
      bucket_next[p * width + b] = acc;
      acc += count;
    }
  }

  // Pass 2: assign slots (ascending t within a bucket => ascending task id,
  // the tie-break order) and build the packed words + slot -> task map.
  std::uint32_t* packed = arena.alloc<std::uint32_t>(total);
  Task32* task_at = arena.alloc<Task32>(n_slots);
  for (std::size_t t = 0; t < total; ++t) {
    const std::size_t p = assignment[cell[t]];
    const std::size_t b =
        priority != nullptr
            ? static_cast<std::size_t>(priority[t] - min_priority)
            : 0;
    const std::uint32_t s = bucket_next[p * width + b]++;
    packed[t] = (s << 8) | indeg[t];
    task_at[s] = static_cast<Task32>(t);
  }

  Schedule schedule(tg.n_cells(), tg.n_directions(), n_processors, assignment);
  std::uint64_t* bitmap = arena.alloc_zero<std::uint64_t>(n_slots / 64 + 1);
  // hint[p]: no live slot of processor p is below this (valid iff queued>0).
  std::uint32_t* hint = arena.alloc<std::uint32_t>(n_processors);
  std::uint32_t* queued = arena.alloc_zero<std::uint32_t>(n_processors);
  char* active_flag = arena.alloc_zero<char>(n_processors);
  std::vector<ProcessorId> active;
  active.reserve(n_processors);

  auto push_slot = [&](std::uint32_t s) {
    const std::size_t p = s >> log2r;
    bitmap[s >> 6] |= 1ull << (s & 63);
    if (queued[p] == 0 || s < hint[p]) hint[p] = s;
    ++queued[p];
    if (!active_flag[p]) {
      active_flag[p] = 1;
      active.push_back(static_cast<ProcessorId>(p));
    }
  };

  // Gated-only state, as in the heap engine.
  using Release = std::pair<TimeStep, Task32>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> pending;
  const TimeStep* release =
      options.release_times.empty() ? nullptr : options.release_times.data();
  std::vector<TimeStep> earliest;
  if (kGated && options.cross_message_delay > 0) earliest.assign(total, 0);

  auto enqueue_ready = [&](Task32 t, TimeStep now) {
    if constexpr (kGated) {
      TimeStep rel = release != nullptr ? release[t] : 0;
      if (!earliest.empty()) rel = std::max(rel, earliest[t]);
      if (rel > now) {
        pending.push({rel, t});
        return;
      }
    }
    push_slot(packed[t] >> 8);
  };

  for (std::size_t t = 0; t < total; ++t) {
    if ((packed[t] & 0xFF) == 0) enqueue_ready(static_cast<Task32>(t), 0);
  }
  build_phase.done();
  obs::PhaseSpan run_phase("engine.slot.run");

  std::size_t done = 0;
  std::vector<Task32> finished;
  finished.reserve(n_processors);
  std::vector<ProcessorId> still_active;
  still_active.reserve(n_processors);
  std::uint64_t scan_words = 0;
  std::size_t peak_active = 0;

  TimeStep now = 0;
  while (done < total) {
    if constexpr (kGated) {
      while (!pending.empty() && pending.top().first <= now) {
        const Task32 task = pending.top().second;
        pending.pop();
        push_slot(packed[task] >> 8);
      }
      if (active.empty()) {
        if (pending.empty()) {
          throw std::logic_error(
              "list_schedule: deadlock — instance DAG has a cycle");
        }
        now = pending.top().first;
        continue;
      }
    } else {
      if (active.empty()) {
        throw std::logic_error(
            "list_schedule: deadlock — instance DAG has a cycle");
      }
    }

    // Each active processor runs its lowest live slot this step.
    finished.clear();
    still_active.clear();
    peak_active = std::max(peak_active, active.size());
    for (ProcessorId p : active) {
      std::size_t w = hint[p] >> 6;
      std::uint64_t word = bitmap[w] & (~0ull << (hint[p] & 63));
      while (word == 0) {
        word = bitmap[++w];
        ++scan_words;
      }
      const auto s =
          static_cast<std::uint32_t>((w << 6) + std::countr_zero(word));
      bitmap[w] &= ~(1ull << (s & 63));
      hint[p] = s;
      const Task32 task = task_at[s];
      --queued[p];
      schedule.set_start(task, now);
      finished.push_back(task);
      if (queued[p] == 0) {
        active_flag[p] = 0;
      } else {
        still_active.push_back(p);
      }
    }
    active.swap(still_active);
    done += finished.size();

    for (Task32 task : finished) {
      [[maybe_unused]] const std::uint32_t task_proc =
          (packed[task] >> 8) >> log2r;
      for (Task32 succ : tg.successors(task)) {
        if constexpr (kGated) {
          if (!earliest.empty() &&
              ((packed[succ] >> 8) >> log2r) != task_proc) {
            earliest[succ] = std::max(earliest[succ],
                                      now + 1 + options.cross_message_delay);
          }
        }
        if ((--packed[succ] & 0xFF) == 0) enqueue_ready(succ, now + 1);
      }
    }
    ++now;
  }
  run_phase.done();
  SWEEP_OBS_COUNTER_ADD("engine.slot.runs", 1);
  SWEEP_OBS_COUNTER_ADD("engine.slot.scan_words", scan_words);
  SWEEP_OBS_COUNTER_ADD("engine.pops", done);
  SWEEP_OBS_COUNTER_ADD("engine.steps", now);
  if (now > 0) {
    SWEEP_OBS_OBSERVE("engine.occupancy",
                      static_cast<double>(done) /
                          (static_cast<double>(now) *
                           static_cast<double>(n_processors)));
    SWEEP_OBS_OBSERVE("engine.peak_active_procs",
                      static_cast<double>(peak_active));
  }
  return schedule;
}

void validate_inputs(std::size_t n, std::size_t total,
                     const Assignment& assignment, std::size_t n_processors,
                     const ListScheduleOptions& options, const char* who) {
  if (assignment.size() != n) {
    throw std::invalid_argument(std::string(who) +
                                ": assignment size != n_cells");
  }
  if (n_processors == 0) {
    throw std::invalid_argument(std::string(who) + ": need >= 1 processor");
  }
  for (ProcessorId p : assignment) {
    if (p >= n_processors) {
      throw std::invalid_argument(std::string(who) +
                                  ": assignment out of range");
    }
  }
  if (!options.priorities.empty() && options.priorities.size() != total) {
    throw std::invalid_argument(std::string(who) + ": priorities size != n*k");
  }
  if (!options.release_times.empty() &&
      options.release_times.size() != total) {
    throw std::invalid_argument(std::string(who) +
                                ": release_times size != n*k");
  }
}

}  // namespace

Schedule list_schedule(const dag::SweepInstance& instance,
                       const Assignment& assignment, std::size_t n_processors,
                       const ListScheduleOptions& options) {
  return list_schedule(instance.task_graph(), assignment, n_processors,
                       options);
}

Schedule list_schedule(const dag::TaskGraph& tg, const Assignment& assignment,
                       std::size_t n_processors,
                       const ListScheduleOptions& options) {
  SWEEP_OBS_SCOPE("core.list_schedule");
  validate_inputs(tg.n_cells(), tg.n_tasks(), assignment, n_processors,
                  options, "list_schedule");
  const std::int64_t* priority =
      options.priorities.empty() ? nullptr : options.priorities.data();

  std::int64_t min_priority = 0;
  std::int64_t max_priority = 0;
  if (priority != nullptr) {
    const auto [lo, hi] = std::minmax_element(options.priorities.begin(),
                                              options.priorities.end());
    min_priority = *lo;
    max_priority = *hi;
  }
  // Unsigned subtraction: the span of two arbitrary int64 values may not fit
  // an int64, but always fits a uint64.
  const std::uint64_t range = static_cast<std::uint64_t>(max_priority) -
                              static_cast<std::uint64_t>(min_priority);
  // The input alone picks the engine: the slot engine when the priority span
  // fits the (range + 1) * m bucket layout and every indegree fits the packed
  // (slot << 8) | indegree word, the heap otherwise.
  const bool use_slots = range <= kMaxBucketRange &&
                         (range + 1) * n_processors <= kMaxTotalBuckets &&
                         tg.max_indegree() <= kMaxPackedIndegree;
  const bool gated =
      !options.release_times.empty() || options.cross_message_delay > 0;

  if (use_slots) {
    const auto width = static_cast<std::size_t>(range) + 1;
    std::optional<Schedule> result =
        gated ? run_slot_engine<true>(tg, assignment, n_processors, options,
                                      min_priority, width)
              : run_slot_engine<false>(tg, assignment, n_processors, options,
                                       min_priority, width);
    if (result.has_value()) return *std::move(result);
    // Slot space overflowed (pathologically skewed assignment): fall through.
    SWEEP_OBS_COUNTER_ADD("engine.slot.fallbacks", 1);
  }
  std::vector<HeapRec> rec(tg.n_tasks());
  {
    const std::uint32_t* indeg = tg.indegrees().data();
    const std::uint32_t* cell = tg.cells().data();
    for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
      rec[t].indegree = indeg[t];
      rec[t].proc = assignment[cell[t]];
      rec[t].prio = priority != nullptr ? priority[t] : 0;
    }
  }
  HeapReadyQueues ready(n_processors);
  return gated ? run_heap_engine<true>(tg, assignment, n_processors, options,
                                       ready, rec)
               : run_heap_engine<false>(tg, assignment, n_processors, options,
                                        ready, rec);
}

Schedule list_schedule_reference(const dag::SweepInstance& instance,
                                 const Assignment& assignment,
                                 std::size_t n_processors,
                                 const ListScheduleOptions& options) {
  const std::size_t n = instance.n_cells();
  const std::size_t k = instance.n_directions();
  const std::size_t total = n * k;
  validate_inputs(n, total, assignment, n_processors, options,
                  "list_schedule");

  auto priority_of = [&](TaskId t) -> std::int64_t {
    return options.priorities.empty() ? 0 : options.priorities[t];
  };
  auto release_of = [&](TaskId t) -> TimeStep {
    return options.release_times.empty() ? 0 : options.release_times[t];
  };

  Schedule schedule(n, k, n_processors, assignment);

  // Remaining predecessor counts per task.
  std::vector<std::uint32_t> indegree(total);
  for (std::size_t i = 0; i < k; ++i) {
    const dag::SweepDag& g = instance.dag(i);
    for (dag::NodeId v = 0; v < n; ++v) {
      indegree[task_id(v, static_cast<DirectionId>(i), n)] =
          static_cast<std::uint32_t>(g.in_degree(v));
    }
  }

  // Per-processor ready min-heaps keyed by (priority, task id).
  using Entry = std::pair<std::int64_t, TaskId>;
  using MinHeap = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;
  std::vector<MinHeap> ready(n_processors);

  // Ready-but-not-yet-released tasks, keyed by release time.
  using Release = std::pair<TimeStep, TaskId>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> pending;

  // Earliest start induced by cross-processor predecessor messages.
  std::vector<TimeStep> earliest;
  if (options.cross_message_delay > 0) earliest.assign(total, 0);

  std::vector<char> active_flag(n_processors, 0);
  std::vector<ProcessorId> active;
  active.reserve(n_processors);

  auto enqueue_ready = [&](TaskId t, TimeStep now) {
    TimeStep release = release_of(t);
    if (!earliest.empty()) release = std::max(release, earliest[t]);
    if (release > now) {
      pending.push({release, t});
      return;
    }
    const ProcessorId p = schedule.processor_of(t);
    ready[p].push({priority_of(t), t});
    if (!active_flag[p]) {
      active_flag[p] = 1;
      active.push_back(p);
    }
  };

  for (TaskId t = 0; t < total; ++t) {
    if (indegree[t] == 0) enqueue_ready(t, 0);
  }

  std::size_t done = 0;
  std::vector<TaskId> finished;
  finished.reserve(n_processors);
  std::vector<ProcessorId> still_active;
  still_active.reserve(n_processors);

  TimeStep t = 0;
  while (done < total) {
    // Releases that have come due.
    while (!pending.empty() && pending.top().first <= t) {
      const TaskId task = pending.top().second;
      pending.pop();
      const ProcessorId p = schedule.processor_of(task);
      ready[p].push({priority_of(task), task});
      if (!active_flag[p]) {
        active_flag[p] = 1;
        active.push_back(p);
      }
    }
    if (active.empty()) {
      if (pending.empty()) {
        throw std::logic_error(
            "list_schedule: deadlock — instance DAG has a cycle");
      }
      t = pending.top().first;
      continue;
    }

    // Each active processor runs its best ready task this step.
    finished.clear();
    still_active.clear();
    for (ProcessorId p : active) {
      const TaskId task = ready[p].top().second;
      ready[p].pop();
      schedule.set_start(task, t);
      finished.push_back(task);
      if (ready[p].empty()) {
        active_flag[p] = 0;
      } else {
        still_active.push_back(p);
      }
    }
    active.swap(still_active);
    done += finished.size();

    // Newly ready successors become available from t+1 (or their release;
    // or t+1+c if the message must cross processors).
    for (TaskId task : finished) {
      const CellId v = task_cell(task, n);
      const DirectionId dir = task_direction(task, n);
      const dag::SweepDag& g = instance.dag(dir);
      const ProcessorId pv = schedule.processor_of(task);
      for (dag::NodeId w : g.successors(v)) {
        const TaskId succ = task_id(w, dir, n);
        if (!earliest.empty() && assignment[w] != pv) {
          earliest[succ] = std::max(
              earliest[succ], t + 1 + options.cross_message_delay);
        }
        if (--indegree[succ] == 0) enqueue_ready(succ, t + 1);
      }
    }
    ++t;
  }
  return schedule;
}

std::vector<TimeStep> greedy_union_schedule(const dag::SweepInstance& instance,
                                            std::size_t n_processors,
                                            std::size_t* makespan) {
  if (n_processors == 0) {
    throw std::invalid_argument("greedy_union_schedule: need >= 1 processor");
  }
  const dag::TaskGraph& tg = instance.task_graph();
  const std::size_t total = tg.n_tasks();

  std::vector<TimeStep> step(total, kUnscheduled);
  std::vector<std::uint32_t> indegree(tg.indegrees().begin(),
                                      tg.indegrees().end());
  std::vector<Task32> frontier;
  for (Task32 t = 0; t < total; ++t) {
    if (indegree[t] == 0) frontier.push_back(t);
  }

  std::size_t done = 0;
  TimeStep now = 0;
  std::vector<Task32> next_frontier;
  while (done < total) {
    if (frontier.empty()) {
      throw std::logic_error("greedy_union_schedule: instance DAG has a cycle");
    }
    // Run up to m tasks from the frontier; the overflow stays ready.
    const std::size_t run = std::min(frontier.size(), n_processors);
    next_frontier.assign(frontier.begin() + static_cast<std::ptrdiff_t>(run),
                         frontier.end());
    for (std::size_t i = 0; i < run; ++i) {
      const Task32 task = frontier[i];
      step[task] = now;
      for (Task32 succ : tg.successors(task)) {
        if (--indegree[succ] == 0) next_frontier.push_back(succ);
      }
    }
    done += run;
    frontier.swap(next_frontier);
    ++now;
  }
  if (makespan != nullptr) *makespan = now;
  return step;
}

}  // namespace sweep::core
