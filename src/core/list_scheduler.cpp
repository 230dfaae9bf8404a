#include "core/list_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "sweep/task_graph.hpp"
#include "util/arena.hpp"

namespace sweep::core {
namespace {

using Task32 = dag::TaskGraph::Task;

// Bounds of the per-(processor, priority) histogram that orders the slots of
// a narrow priority span: it holds (span + 1) * m counters. Level-derived
// priorities span at most depth + k values, so they fit unless m is huge;
// wider spans are ordered by sorting instead (order_slots).
constexpr std::uint64_t kMaxBucketRange = (1u << 16) - 1;
constexpr std::uint64_t kMaxTotalBuckets = 1u << 20;

/// Per-thread scratch for the engine. list_schedule is called in tight loops
/// (trial fan-outs run thousands of schedules per thread); reusing the
/// per-call lanes instead of reallocating them avoids ~1MB of
/// mmap/page-zeroing traffic per call. The hot lanes (packed, task_at,
/// bitmap, owner, shift, hint, queued, active_flag) and the per-step
/// m-sized buffers live as a structure-of-arrays in one 64-byte-aligned
/// arena — each lane starts on its own cache line and the per-call
/// carve-out is free once the arena is warm. The slot order, the
/// per-processor loads and the per-step edge buffers stay vectors: the
/// first two decide the slot space, and so the arena's size, and the edge
/// buffers grow to the most edges one step resolves, which only the run
/// finds out. Lanes are zero-filled per call (bitmap, queued, active_flag),
/// set per call (hint) or written before they are read (the rest).
struct SlotScratch {
  std::vector<std::uint32_t> counts;  // (processor, priority) or priority counts
  std::vector<Task32> by_priority;    // tasks in (priority, task id) order
  std::vector<std::uint32_t> load;    // tasks per processor, then a cursor
  std::vector<Task32> step_succ;      // one step's successors, edge by edge
  std::vector<ProcessorId> step_from; // their sources' processors (gated)
  util::Arena arena;
};

/// One finished task's successor row: targets()[begin, end).
struct Row {
  std::uint32_t begin;
  std::uint32_t end;
};

SlotScratch& slot_scratch() {
  thread_local SlotScratch scratch;
  return scratch;
}

/// What the input decided about the slot layout: how the build orders the
/// tasks by (processor, priority, task id), how many slots that takes, and
/// how many low bits of a packed word hold the remaining indegree.
struct SlotLayout {
  std::int64_t min_priority = 0;
  /// Buckets per processor of the histogram in SlotScratch::counts, or 0
  /// when SlotScratch::by_priority lists the tasks instead.
  std::size_t width = 0;
  /// Slot space: every processor's load rounded up to a 64-slot word.
  std::uint64_t n_slots = 0;
  unsigned bits = 0;
};

/// Task t's priority minus the smallest one (0 without priorities). Unsigned
/// subtraction: the span of two arbitrary int64 values may not fit an
/// int64, but always fits a uint64.
std::size_t rank_of(const std::int64_t* priority, std::int64_t min_priority,
                    std::size_t t) {
  return priority != nullptr
             ? static_cast<std::size_t>(
                   static_cast<std::uint64_t>(priority[t]) -
                   static_cast<std::uint64_t>(min_priority))
             : 0;
}

/// First half of the slot build: fills the per-processor loads and either
/// the (processor, priority) histogram, while its bounds hold, or the list
/// of tasks in (priority, task id) order — by a counting sort when the span
/// is below the task count, by a comparison sort beyond that. The input
/// alone picks the path; each yields the same slot layout.
SlotLayout order_slots(const dag::TaskGraph& tg, const Assignment& assignment,
                       std::size_t n_processors,
                       std::span<const std::int64_t> priorities) {
  SlotScratch& scratch = slot_scratch();
  const std::size_t total = tg.n_tasks();
  const std::uint32_t* cell = tg.cells().data();
  const std::int64_t* priority =
      priorities.empty() ? nullptr : priorities.data();

  SlotLayout layout;
  std::uint64_t range = 0;
  if (priority != nullptr) {
    const auto [lo, hi] =
        std::minmax_element(priorities.begin(), priorities.end());
    layout.min_priority = *lo;
    range = static_cast<std::uint64_t>(*hi) - static_cast<std::uint64_t>(*lo);
  }
  const auto rank = [&](std::size_t t) {
    return rank_of(priority, layout.min_priority, t);
  };

  scratch.load.assign(n_processors, 0);
  std::uint32_t* load = scratch.load.data();
  if (range <= kMaxBucketRange &&
      (range + 1) * n_processors <= kMaxTotalBuckets) {
    layout.width = static_cast<std::size_t>(range) + 1;
    scratch.counts.assign(n_processors * layout.width, 0);
    std::uint32_t* counts = scratch.counts.data();
    for (std::size_t t = 0; t < total; ++t) {
      ++counts[assignment[cell[t]] * layout.width + rank(t)];
    }
    for (std::size_t p = 0; p < n_processors; ++p) {
      load[p] = std::accumulate(counts + p * layout.width,
                                counts + (p + 1) * layout.width, 0u);
    }
  } else {
    for (std::size_t t = 0; t < total; ++t) ++load[assignment[cell[t]]];
    scratch.by_priority.resize(total);
    Task32* by_priority = scratch.by_priority.data();
    if (range < total) {
      // Stable counting sort: ties keep ascending task ids.
      scratch.counts.assign(static_cast<std::size_t>(range) + 1, 0);
      std::uint32_t* counts = scratch.counts.data();
      for (std::size_t t = 0; t < total; ++t) ++counts[rank(t)];
      std::exclusive_scan(counts, counts + range + 1, counts, 0u);
      for (std::size_t t = 0; t < total; ++t) {
        by_priority[counts[rank(t)]++] = static_cast<Task32>(t);
      }
    } else {
      std::iota(by_priority, by_priority + total, Task32{0});
      std::sort(by_priority, by_priority + total, [&](Task32 a, Task32 b) {
        return priority[a] != priority[b] ? priority[a] < priority[b] : a < b;
      });
    }
  }
  for (std::size_t p = 0; p < n_processors; ++p) {
    layout.n_slots += (std::uint64_t{load[p]} + 63) & ~std::uint64_t{63};
  }
  return layout;
}

/// The engine. Every task gets a static SLOT: slots are ordered by
/// (processor, priority, task id), and each processor's region starts on a
/// 64-slot word boundary, so every bitmap word has one owner processor
/// (owner[slot >> 6]). The ready set is a single bitmap over slots, and:
///   push  = set the task's slot bit (plus hint/count upkeep for the word's
///           owner); no per-task loads — the slot rides in the packed
///           indegree word.
///   pop   = find-first-set from the processor's hint; the lowest live slot
///           IS the (priority, task id) minimum, so this reproduces the
///           reference heap order bit-for-bit with ~2 word reads + ctz.
/// The per-task Word packs (slot << bits) | remaining_indegree, so the edge
/// walk's decrement also delivers the slot of a newly-ready task for free.
/// task_at lists the tasks in slot order without the padding: slot s of
/// processor p holds task_at[s - shift[p]].
///
/// Each timestep resolves its finished tasks in passes, so that the loads
/// one step needs are in flight together instead of one dependent miss
/// after another (pop -> offsets -> targets -> packed): the pop loop
/// prefetches each popped task's offsets entry; a second pass reads the
/// row bounds and prefetches each targets row; a third gathers the step's
/// successors into a per-step buffer, prefetching each one's packed word;
/// the last decrements. The push in that last pass has no data-dependent
/// branch (the decrement reaches zero about half the time, which no
/// predictor learns): the ready bit is OR-ed in shifted by the zero test,
/// a processor with nothing queued holds an all-ones hint so the hint
/// update is a min, and the owner is appended to the active list
/// unconditionally while the list's length advances by the newly-active
/// flag. kGated compiles the release-time / cross-message-delay gate into
/// the same loop and is the only difference between the two
/// instantiations: the gate needs the zero test as a branch anyway, so a
/// gated run pushes only the tasks that pass it.
///
/// Every instantiation is its own function (never inlined into
/// list_schedule) starting on a 64-byte boundary, so an edit elsewhere in
/// this library cannot shift the loop's cache-line and fetch-block phase:
/// one that moved it by 96 bytes and changed nothing on its path had cost
/// the paper-scale ledger workload about 8% in p90 latency.
template <bool kGated, typename Word>
[[gnu::aligned(64), gnu::noinline]] Schedule run_slot_engine(
    const dag::TaskGraph& tg, const Assignment& assignment,
    std::size_t n_processors, const ListScheduleOptions& options,
    const SlotLayout& layout, obs::PhaseSpan& build_phase) {
  const std::size_t total = tg.n_tasks();
  const std::uint32_t* indeg = tg.indegrees().data();
  const std::uint32_t* cell = tg.cells().data();
  const std::uint32_t* offsets = tg.offsets().data();
  const Task32* targets = tg.targets().data();
  const std::int64_t* priority =
      options.priorities.empty() ? nullptr : options.priorities.data();
  const unsigned bits = layout.bits;
  const Word indegree_mask = (Word{1} << bits) - 1;
  const std::size_t n_words = layout.n_slots / 64;

  SlotScratch& scratch = slot_scratch();
  std::uint32_t* next = scratch.load.data();
  // One reservation covers every lane of this call; the allocs below are
  // cursor bumps into the warm block.
  util::Arena& arena = scratch.arena;
  arena.reserve(util::Arena::lane_bytes<Word>(total) +
                util::Arena::lane_bytes<Task32>(total) +
                util::Arena::lane_bytes<std::uint64_t>(n_words) +
                util::Arena::lane_bytes<ProcessorId>(n_words) +
                util::Arena::lane_bytes<Word>(n_processors) * 2 +
                util::Arena::lane_bytes<std::uint32_t>(n_processors) +
                util::Arena::lane_bytes<std::uint8_t>(n_processors) +
                util::Arena::lane_bytes<ProcessorId>(n_processors + 1) * 2 +
                util::Arena::lane_bytes<Task32>(n_processors) +
                util::Arena::lane_bytes<Row>(n_processors) +
                util::Arena::lane_bytes<ProcessorId>(n_processors));

  // Regions: processor p's slots start on the word after p - 1's and
  // shift[p] is the padding before them. next[p], p's load until here,
  // becomes the task_at index of p's first task.
  Word* shift = arena.alloc<Word>(n_processors);
  ProcessorId* owner = arena.alloc<ProcessorId>(n_words);
  {
    Word slot = 0;
    std::uint32_t first = 0;
    for (std::size_t p = 0; p < n_processors; ++p) {
      const std::uint32_t load = next[p];
      const std::size_t words = (std::size_t{load} + 63) / 64;
      shift[p] = slot - first;
      std::fill_n(owner + slot / 64, words, static_cast<ProcessorId>(p));
      next[p] = first;
      first += load;
      slot += static_cast<Word>(words * 64);
    }
  }

  // Second half of the build: hand out slots in (processor, priority, task
  // id) order and build the packed words + the task_at order.
  Word* packed = arena.alloc<Word>(total);
  Task32* task_at = arena.alloc<Task32>(total);
  const auto place = [&](std::size_t t, std::uint32_t index, std::size_t p) {
    packed[t] = ((static_cast<Word>(index) + shift[p]) << bits) | indeg[t];
    task_at[index] = static_cast<Task32>(t);
  };
  if (layout.width > 0) {
    // Exclusive scan over the whole (processor, priority) histogram: bucket
    // pb's counter becomes the task_at index of its first task.
    std::uint32_t* counts = scratch.counts.data();
    std::exclusive_scan(counts, counts + n_processors * layout.width, counts,
                        0u);
    for (std::size_t t = 0; t < total; ++t) {
      const std::size_t p = assignment[cell[t]];
      const std::size_t b = rank_of(priority, layout.min_priority, t);
      place(t, counts[p * layout.width + b]++, p);
    }
  } else {
    // Stable scatter of the (priority, task id) list by processor.
    for (const Task32 t : scratch.by_priority) {
      const std::size_t p = assignment[cell[t]];
      place(t, next[p]++, p);
    }
  }

  Schedule schedule(tg.n_cells(), tg.n_directions(), n_processors, assignment);
  std::uint64_t* bitmap = arena.alloc_zero<std::uint64_t>(n_words);
  // hint[p]: no live slot of processor p is below this. It is all ones
  // while p has nothing queued, so a push lowers it with a plain min.
  Word* hint = arena.alloc<Word>(n_processors);
  std::fill_n(hint, n_processors, ~Word{0});
  std::uint32_t* queued = arena.alloc_zero<std::uint32_t>(n_processors);
  std::uint8_t* active_flag = arena.alloc_zero<std::uint8_t>(n_processors);
  // The processors with queued tasks, and the pop loop's list of those that
  // keep some; the spare entry takes the unconditional append.
  ProcessorId* active = arena.alloc<ProcessorId>(n_processors + 1);
  ProcessorId* still_active = arena.alloc<ProcessorId>(n_processors + 1);
  std::size_t n_active = 0;
  // Per-step buffers: the step's finished tasks, their successor rows and
  // (gated) the processors they ran on.
  Task32* finished = arena.alloc<Task32>(n_processors);
  Row* rows = arena.alloc<Row>(n_processors);
  ProcessorId* finished_on = arena.alloc<ProcessorId>(n_processors);

  // Pushes slot s if ready is 1; if it is 0, rewrites the same words with
  // the values they hold.
  const auto push_slot = [&](Word s, Word ready) {
    const ProcessorId p = owner[s >> 6];
    bitmap[s >> 6] |= std::uint64_t{ready} << (s & 63);
    hint[p] = std::min(hint[p], s | (ready - 1));
    queued[p] += static_cast<std::uint32_t>(ready);
    active[n_active] = p;
    n_active += ready & (active_flag[p] ^ 1u);
    active_flag[p] = static_cast<std::uint8_t>(active_flag[p] | ready);
  };

  // Gated-only state: tasks whose predecessors are done but whose release
  // (or cross-processor message) has not yet come due, keyed by due time.
  using Release = std::pair<TimeStep, Task32>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> pending;
  const TimeStep* release =
      options.release_times.empty() ? nullptr : options.release_times.data();
  std::vector<TimeStep> earliest;
  if (kGated && options.cross_message_delay > 0) earliest.assign(total, 0);

  // Gated: the step from which task t may run once its predecessors are
  // done — its release, or its last cross-processor message.
  [[maybe_unused]] const auto due_time = [&](Task32 t) {
    const TimeStep due = release != nullptr ? release[t] : 0;
    return earliest.empty() ? due : std::max(due, earliest[t]);
  };

  for (std::size_t t = 0; t < total; ++t) {
    if ((packed[t] & indegree_mask) != 0) continue;
    if constexpr (kGated) {
      if (const TimeStep due = due_time(static_cast<Task32>(t)); due > 0) {
        pending.push({due, static_cast<Task32>(t)});
        continue;
      }
    }
    push_slot(packed[t] >> bits, 1);
  }
  build_phase.done();
  obs::PhaseSpan run_phase("engine.slot.run");

  std::size_t done = 0;
  std::uint64_t scan_words = 0;
  std::size_t peak_active = 0;

  TimeStep now = 0;
  while (done < total) {
    if constexpr (kGated) {
      // Releases that have come due.
      while (!pending.empty() && pending.top().first <= now) {
        const Task32 task = pending.top().second;
        pending.pop();
        push_slot(packed[task] >> bits, 1);
      }
      if (n_active == 0) {
        if (pending.empty()) {
          throw std::logic_error(
              "list_schedule: deadlock — instance DAG has a cycle");
        }
        now = pending.top().first;
        continue;
      }
    } else {
      if (n_active == 0) {
        throw std::logic_error(
            "list_schedule: deadlock — instance DAG has a cycle");
      }
    }

    // Pass 1: each active processor runs its lowest live slot this step;
    // the task's offsets entry is fetched for pass 2.
    const std::size_t n_finished = n_active;
    std::size_t n_still = 0;
    peak_active = std::max(peak_active, n_active);
    for (std::size_t a = 0; a < n_finished; ++a) {
      const ProcessorId p = active[a];
      std::size_t w = hint[p] >> 6;
      std::uint64_t word = bitmap[w] & (~0ull << (hint[p] & 63));
      while (word == 0) {
        word = bitmap[++w];
        ++scan_words;
      }
      const auto s = static_cast<Word>((w << 6) + std::countr_zero(word));
      bitmap[w] &= ~(1ull << (s & 63));
      const Task32 task = task_at[s - shift[p]];
      __builtin_prefetch(offsets + task);
      schedule.set_start(task, now);
      finished[a] = task;
      if constexpr (kGated) finished_on[a] = p;
      const Word more = --queued[p] != 0;
      hint[p] = s | (more - 1);
      still_active[n_still] = p;
      n_still += more;
      active_flag[p] = static_cast<std::uint8_t>(more);
    }
    std::swap(active, still_active);
    n_active = n_still;
    done += n_finished;

    // Pass 2: the finished tasks' successor rows; each row is fetched for
    // pass 3.
    std::size_t n_edges = 0;
    for (std::size_t i = 0; i < n_finished; ++i) {
      const Row row{offsets[finished[i]], offsets[finished[i] + 1]};
      __builtin_prefetch(targets + row.begin);
      rows[i] = row;
      n_edges += row.end - row.begin;
    }

    // Pass 3: gather the step's successors; each one's packed word is
    // fetched for pass 4.
    if (scratch.step_succ.size() < n_edges) scratch.step_succ.resize(n_edges);
    if constexpr (kGated) {
      if (scratch.step_from.size() < n_edges) scratch.step_from.resize(n_edges);
    }
    Task32* succ_at = scratch.step_succ.data();
    [[maybe_unused]] ProcessorId* from = scratch.step_from.data();
    std::size_t e = 0;
    for (std::size_t i = 0; i < n_finished; ++i) {
      for (std::uint32_t j = rows[i].begin; j < rows[i].end; ++j, ++e) {
        const Task32 succ = targets[j];
        __builtin_prefetch(packed + succ, 1);
        succ_at[e] = succ;
        if constexpr (kGated) from[e] = finished_on[i];
      }
    }

    // Pass 4: decrement. Newly ready successors become available from
    // now+1 (or their release; or now+1+c if the message must cross
    // processors).
    for (e = 0; e < n_edges; ++e) {
      const Task32 succ = succ_at[e];
      const Word left = --packed[succ];
      const Word s = left >> bits;
      const Word ready = (left & indegree_mask) == 0;
      if constexpr (kGated) {
        if (!earliest.empty() && owner[s >> 6] != from[e]) {
          earliest[succ] = std::max(earliest[succ],
                                    now + 1 + options.cross_message_delay);
        }
        // The gate needs the zero test's branch anyway, so a gated run
        // pushes only the tasks that pass it.
        if (ready == 0) continue;
        if (const TimeStep due = due_time(succ); due > now + 1) {
          pending.push({due, succ});
          continue;
        }
      }
      push_slot(s, ready);
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

Schedule list_schedule(const dag::TaskGraph& tg, const Assignment& assignment,
                       std::size_t n_processors,
                       const ListScheduleOptions& options) {
  SWEEP_OBS_SCOPE("core.list_schedule");
  validate_inputs(tg.n_cells(), tg.n_tasks(), assignment, n_processors,
                  options, "list_schedule");
  obs::PhaseSpan build_phase("engine.slot.build");
  SlotLayout layout =
      order_slots(tg, assignment, n_processors, options.priorities);
  // The input picks the packed word: (slot << bits) | remaining indegree,
  // with bits wide enough for the largest indegree, in 32 bits when the slot
  // space fits beside it and in 64 bits otherwise.
  layout.bits =
      std::max(1u, static_cast<unsigned>(std::bit_width(tg.max_indegree())));
  if (layout.bits + static_cast<unsigned>(std::bit_width(layout.n_slots)) > 64) {
    throw std::length_error("list_schedule: slot space exceeds 64-bit words");
  }
  const bool narrow = layout.n_slots <= (std::uint64_t{1} << (32 - layout.bits));
  const bool gated =
      !options.release_times.empty() || options.cross_message_delay > 0;
  if (narrow) {
    return gated ? run_slot_engine<true, std::uint32_t>(
                       tg, assignment, n_processors, options, layout, build_phase)
                 : run_slot_engine<false, std::uint32_t>(
                       tg, assignment, n_processors, options, layout, build_phase);
  }
  return gated ? run_slot_engine<true, std::uint64_t>(
                     tg, assignment, n_processors, options, layout, build_phase)
               : run_slot_engine<false, std::uint64_t>(
                     tg, assignment, n_processors, options, layout, build_phase);
}

Schedule list_schedule_reference(const dag::TaskGraph& graph,
                                 const Assignment& assignment,
                                 std::size_t n_processors,
                                 const ListScheduleOptions& options) {
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
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

  // Remaining predecessor counts per task, recounted from the successor
  // lists rather than read from indegrees().
  std::vector<std::uint32_t> indegree(total, 0);
  for (const dag::TaskGraph::Task succ : graph.targets()) ++indegree[succ];

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
      const ProcessorId pv = schedule.processor_of(task);
      for (const TaskId succ : graph.successors(task)) {
        if (!earliest.empty() && schedule.processor_of(succ) != pv) {
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

std::vector<TimeStep> greedy_union_schedule(const dag::TaskGraph& tg,
                                            std::size_t n_processors,
                                            std::size_t* makespan) {
  if (n_processors == 0) {
    throw std::invalid_argument("greedy_union_schedule: need >= 1 processor");
  }
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
