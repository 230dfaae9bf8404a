// Serve-side load: packs served artifacts, runs sweep_serve as a child
// process, drives it in closed and open loops from one client connection
// per thread, and checks sampled responses in process.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/assignment.hpp"
#include "core/list_scheduler.hpp"
#include "core/priorities.hpp"
#include "partition/multilevel.hpp"
#include "serve/client.hpp"
#include "sweep/descendants.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

extern char** environ;

namespace ledger {

using sweep::serve::MsgType;
using sweep::serve::Request;
using sweep::serve::Scheme;

ServedArtifact pack_served(Ledger& ledger, const Problem& problem,
                           const std::string& path, std::uint64_t seed) {
  const sweep::dag::SweepInstance& instance = problem.instance;
  const std::size_t n = instance.n_cells();
  ServedArtifact out;
  out.path = path;
  out.instance = &instance;
  // The daemon's descendant scheme reproduces descendant_priorities only on
  // its exact path, so larger instances are packed (and queried) without it.
  const bool descendants = n <= sweep::dag::kDefaultExactThreshold;
  if (descendants) {
    ledger.time("sweep.descendants_s", 0, [&] {
      sweep::util::parallel_for(instance.n_directions(), [&](std::size_t i) {
        (void)instance.exact_descendant_counts(i);
      });
    });
  }
  for (const std::uint32_t parts : kServeProcs) {
    const std::size_t block = std::max<std::size_t>(1, (n + parts - 1) / parts);
    sweep::partition::MultilevelOptions options;
    options.seed = sweep::util::split_seed(seed, parts);
    sweep::partition::Partition part = ledger.time("partition.blocks_s", 0, [&] {
      return sweep::partition::partition_into_blocks(problem.graph, block,
                                                     options);
    });
    ledger.add("partition.edge_cut",
               static_cast<double>(sweep::partition::edge_cut(problem.graph, part)));
    sweep::dag::ArtifactPartition packed;
    packed.n_parts = std::max<std::size_t>(1, (n + block - 1) / block);
    packed.assignment = std::move(part);
    out.partitions.push_back(std::move(packed));
  }
  sweep::dag::ArtifactWriteOptions options;
  options.partitions = &out.partitions;
  options.include_descendants = descendants;
  ledger.time("sweep.artifact.pack_s", 0,
              [&] { sweep::dag::save_artifact(instance, path, options); });
  const auto artifact = ledger.time("sweep.artifact.load_s", 0, [&] {
    return sweep::dag::Artifact::map_file(path);
  });
  ledger.add("sweep.artifact.bytes", static_cast<double>(artifact->file_bytes()));
  out.content_hash = artifact->content_hash();
  return out;
}

// ------------------------------------------------------------------ daemon

Daemon::Daemon(const Config& config, const std::string& artifact,
               const std::string& tag)
    : socket_(config.run_dir + "/" + tag + ".sock") {
  std::vector<std::string> args = {
      config.daemon,   "--artifact",        artifact,
      "--socket",      socket_,             "--threads",
      std::to_string(config.nproc), "--slow-request-ms", "0"};
  if (config.traced) {
    args.insert(args.end(),
                {"--metrics-out", config.run_dir + "/" + tag + ".metrics.json",
                 "--trace-out", config.run_dir + "/" + tag + ".trace.json"});
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  // The daemon's own output goes to a log file: the ledger's stdout must end
  // with the result line.
  const std::string log = config.run_dir + "/" + tag + ".log";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, config.daemon.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + config.daemon);
  }

  const double deadline = now_s() + 30.0;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("sweep_serve exited during start-up; see " + log);
    }
    try {
      sweep::serve::Client client(socket_);
      if (client.ping().status == 0) return;
    } catch (const std::exception&) {
      // Not listening yet.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  throw std::runtime_error("sweep_serve did not answer a ping within 30 s");
}

Daemon::~Daemon() {
  if (pid_ > 0 && !shutdown()) {
    std::fprintf(stderr, "sweep_serve did not shut down cleanly\n");
  }
}

sweep::serve::StatsResponse Daemon::stats() const {
  sweep::serve::Client client(socket_);
  const sweep::serve::Response response = client.stats();
  if (response.status != 0) throw std::runtime_error("stats: " + response.error);
  return response.stats;
}

double Daemon::peak_rss_mb() const { return ledger::peak_rss_mb(pid_); }

bool Daemon::shutdown() {
  if (pid_ <= 0) return true;
  try {
    sweep::serve::Client client(socket_, {.timeout_ms = 10'000});
    (void)client.shutdown_server();
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  int status = 0;
  for (int i = 0; i < 1000; ++i) {  // up to 10 s
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return false;
}

// ------------------------------------------------------------------- loops

namespace {

void call_into(sweep::serve::Client& client, Outcome& outcome) {
  outcome.sent = now_s();
  try {
    const sweep::serve::Response response = client.call(outcome.request);
    outcome.ok = response.status == 0;
    outcome.reply = response.query;
  } catch (const std::exception& e) {
    outcome.ok = false;
    std::fprintf(stderr, "request failed: %s\n", e.what());
  }
  outcome.done = now_s();
}

double phase_wall(const std::vector<Outcome>& outcomes) {
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    first = i == 0 ? outcomes[i].due : std::min(first, outcomes[i].due);
    last = std::max(last, outcomes[i].done);
  }
  return last - first;
}

}  // namespace

PhaseResult closed_loop(const Daemon& daemon, const std::vector<Request>& queries,
                        std::size_t connections) {
  PhaseResult result;
  result.outcomes.resize(queries.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      std::unique_ptr<sweep::serve::Client> client;
      try {
        client = std::make_unique<sweep::serve::Client>(daemon.socket());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "connect failed: %s\n", e.what());
      }
      for (std::size_t i = next++; i < queries.size(); i = next++) {
        Outcome& outcome = result.outcomes[i];
        outcome.request = queries[i];
        outcome.connection = c;
        outcome.due = now_s();
        if (client != nullptr) {
          call_into(*client, outcome);
        } else {
          outcome.sent = outcome.done = outcome.due;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  result.wall = phase_wall(result.outcomes);
  return result;
}

PhaseResult open_loop(const Daemon& daemon, const std::vector<Request>& requests,
                      const std::vector<double>& due, std::size_t connections) {
  PhaseResult result;
  result.outcomes.resize(requests.size());
  const double start = now_s() + 0.02;  // every client connected by then
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      std::unique_ptr<sweep::serve::Client> client;
      try {
        client = std::make_unique<sweep::serve::Client>(daemon.socket());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "connect failed: %s\n", e.what());
      }
      for (std::size_t i = c; i < requests.size(); i += connections) {
        Outcome& outcome = result.outcomes[i];
        outcome.request = requests[i];
        outcome.connection = c;
        outcome.due = start + due[i];
        const double wait = outcome.due - now_s();
        if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        if (client != nullptr) {
          call_into(*client, outcome);
        } else {
          outcome.sent = outcome.done = now_s();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  result.wall = phase_wall(result.outcomes);
  return result;
}

std::vector<Request> distinct_queries(std::size_t count, std::uint64_t first_seed,
                                     bool descendants) {
  const std::uint32_t schemes = descendants ? 3 : 2;
  std::vector<Request> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request& r = out[i];
    r.type = MsgType::kQuery;
    r.query.scheme = static_cast<Scheme>(i % schemes);
    r.query.m = kServeProcs[(i / schemes) % 2];
    r.query.seed = first_seed + i;
    r.query.partition = i % 8 == 7 ? static_cast<std::int64_t>((i / 8) % 2) : -1;
  }
  return out;
}

Request swap_request(const std::string& path) {
  Request r;
  r.type = MsgType::kSwap;
  r.swap.path = path;
  return r;
}

std::vector<double> poisson_arrivals(std::size_t n, double rate,
                                     std::uint64_t seed) {
  sweep::util::Rng rng(seed);
  std::vector<double> due(n);
  double t = 0.0;
  for (double& d : due) {
    t += rng.next_exponential(rate);
    d = t;
  }
  return due;
}

namespace {

std::string key_of(const sweep::serve::QueryRequest& q) {
  return std::to_string(static_cast<int>(q.scheme)) + "|" +
         std::to_string(q.partition >= 0 ? 0u : q.m) + "|" +
         std::to_string(q.seed) + "|" + std::to_string(q.partition);
}

}  // namespace

void assign_epochs(const std::vector<PhaseResult*>& phases) {
  // Swap windows [sent, done]; the flip happens inside one.
  std::vector<std::pair<double, double>> swaps;
  std::vector<Outcome*> queries;
  for (PhaseResult* phase : phases) {
    for (Outcome& o : phase->outcomes) {
      if (o.request.type == MsgType::kSwap) {
        if (o.ok) swaps.emplace_back(o.sent, o.done);
      } else {
        queries.push_back(&o);
      }
    }
  }
  std::stable_sort(queries.begin(), queries.end(),
                   [](const Outcome* a, const Outcome* b) { return a->sent < b->sent; });
  std::map<std::size_t, std::set<std::string>> seen;
  for (Outcome* o : queries) {
    o->epoch = 0;
    o->overlaps_swap = false;
    for (const auto& [sent, done] : swaps) {
      if (done < o->sent) ++o->epoch;
      if (sent < o->done && done > o->sent) o->overlaps_swap = true;
    }
    o->first_of_key = seen[o->epoch].insert(key_of(o->request.query)).second;
  }
}

void gate_outcomes(const PhaseResult& phase, Gate& gate) {
  for (const Outcome& o : phase.outcomes) {
    gate.attempt();
    if (!o.ok) gate.fail("request failed or refused");
  }
}

std::vector<double> computed_latencies_ms(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    if (o.ok && o.request.type == MsgType::kQuery && o.first_of_key) {
      out.push_back((o.done - o.due) * 1e3);
    }
  }
  return out;
}

void record_loadgen(Ledger& ledger, const PhaseResult& lo, const PhaseResult& hi) {
  // Per connection, in issue order: how late the generator itself ran, past
  // the later of the due time and the connection's previous response.
  std::vector<double> late;
  std::map<std::size_t, double> free_at;
  for (const Outcome& o : lo.outcomes) {
    const double prev_done = free_at.count(o.connection) ? free_at[o.connection] : 0.0;
    late.push_back(std::max(0.0, o.sent - std::max(o.due, prev_done)) * 1e3);
    free_at[o.connection] = o.done;
  }
  // Backlog: requests already due but not yet sent, at each send.
  std::vector<double> dues;
  std::vector<double> sends;
  for (const Outcome& o : lo.outcomes) {
    dues.push_back(o.due);
    sends.push_back(o.sent);
  }
  std::sort(dues.begin(), dues.end());
  std::sort(sends.begin(), sends.end());
  std::size_t backlog_max = 0;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const auto due_by = static_cast<std::size_t>(
        std::upper_bound(dues.begin(), dues.end(), sends[i]) - dues.begin());
    backlog_max = std::max(backlog_max, due_by > i + 1 ? due_by - i - 1 : 0);
  }
  ledger.add("loadgen.late_p99_ms", quantile(late, 0.99));
  ledger.add("loadgen.backlog_max", static_cast<double>(backlog_max));

  const std::vector<double> hi_ms = computed_latencies_ms(hi);
  ledger.add("loadgen.p50_ms.hi", quantile(hi_ms, 0.50));
  ledger.add("loadgen.p99_ms.hi", quantile(hi_ms, 0.99));
}

void record_daemon_stats(Ledger& ledger, const Daemon& daemon) {
  const sweep::serve::StatsResponse stats = daemon.stats();
  const auto entry = [&](const std::string& key) {
    for (const auto& [k, v] : stats.entries) {
      if (k == key) return static_cast<double>(v);
    }
    return 0.0;
  };
  const double hits = entry("serve.cache.hits");
  const double lookups = hits + entry("serve.cache.misses") +
                         entry("serve.cache.inflight_waits");
  ledger.add("serve.cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  ledger.add("serve.cache.inflight_waits", entry("serve.cache.inflight_waits"));
  ledger.add("serve.cache.evictions", entry("serve.cache.evictions"));
  ledger.add("serve.cache.invalidations", entry("serve.cache.invalidations"));
  static const char* const kPhases[] = {"decode", "lookup", "schedule",
                                        "cost",   "encode", "write"};
  for (const char* phase : kPhases) {
    const std::string hist = std::string("serve.") + phase + "_ns";
    double p50 = 0.0;
    double p99 = 0.0;
    for (const sweep::serve::StatsHistogram& h : stats.histograms) {
      if (h.name == hist) {
        p50 = static_cast<double>(h.p50) / 1e3;
        p99 = static_cast<double>(h.p99) / 1e3;
      }
    }
    ledger.add(std::string("serve.phase.") + phase + ".p50_us", p50);
    ledger.add(std::string("serve.phase.") + phase + ".p99_us", p99);
  }
}

// ----------------------------------------------------------------- checks

void Verifier::expect(const sweep::serve::QueryRequest& query,
                      std::uint64_t hash,
                      std::vector<const ServedArtifact*> live,
                      std::int64_t parent) {
  pending_.push_back({query, hash, std::move(live), parent});
}

std::uint64_t Verifier::expected(const ServedArtifact& artifact,
                                 const sweep::serve::QueryRequest& query,
                                 std::int64_t parent) {
  namespace core = sweep::core;
  const sweep::dag::SweepInstance& instance = *artifact.instance;
  sweep::util::Rng rng(query.seed);
  core::Assignment assignment;
  std::size_t m = query.m;
  if (query.partition >= 0) {
    const auto& part = artifact.partitions.at(static_cast<std::size_t>(query.partition));
    m = part.n_parts;
    assignment = part.assignment;
  } else {
    assignment = core::random_assignment(instance.n_cells(), m, rng);
  }
  std::vector<std::int64_t> priorities;
  switch (query.scheme) {
    case Scheme::kLevel:
      priorities = ledger_.time("core.prio.level_s", parent,
                                [&] { return core::level_priorities(instance); });
      break;
    case Scheme::kRandomDelay:
      priorities = ledger_.time("core.prio.random_delay_s", parent, [&] {
        const auto delays = core::random_delays(instance.n_directions(), rng);
        return core::random_delay_priorities(instance, delays);
      });
      break;
    case Scheme::kDescendant:
      priorities = ledger_.time("core.prio.descendant_s", parent, [&] {
        return core::descendant_priorities(instance, rng);
      });
      break;
  }
  core::ListScheduleOptions options;
  options.priorities = priorities;
  const core::Schedule schedule = ledger_.time("core.sched.j1_s", parent, [&] {
    return core::list_schedule(instance, assignment, m, options);
  });
  return schedule_checksum(schedule);
}

void Verifier::finish() {
  // Each distinct (artifact, key) is recomputed once.
  std::map<std::pair<const ServedArtifact*, std::string>, std::uint64_t> want;
  std::vector<std::pair<const ServedArtifact*, const Pending*>> jobs;
  for (const Pending& p : pending_) {
    for (const ServedArtifact* a : p.live) {
      if (want.emplace(std::make_pair(a, key_of(p.query)), 0).second) {
        jobs.emplace_back(a, &p);
      }
    }
  }
  std::vector<std::uint64_t> hashes(jobs.size());
  sweep::util::parallel_for(jobs.size(), [&](std::size_t i) {
    hashes[i] = expected(*jobs[i].first, jobs[i].second->query,
                         jobs[i].second->parent);
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    want[{jobs[i].first, key_of(jobs[i].second->query)}] = hashes[i];
  }
  for (const Pending& p : pending_) {
    gate_.attempt();
    ++checked_;
    bool match = false;
    for (const ServedArtifact* a : p.live) {
      match = match || want[{a, key_of(p.query)}] == p.hash;
    }
    if (!match) gate_.fail("served schedule hash differs from the live artifact's (key " +
                           key_of(p.query) + ")");
  }
  pending_.clear();
}

void verify_phases(Verifier& verifier, const std::vector<PhaseResult*>& phases,
                   const std::vector<const ServedArtifact*>& artifacts) {
  std::int64_t id = 0;
  for (const PhaseResult* phase : phases) {
    std::size_t index = 0;
    for (const Outcome& o : phase->outcomes) {
      if (!o.ok || o.request.type != MsgType::kQuery) continue;
      ++id;
      const bool sampled = index++ % 25 == 0;
      const bool first_after_swap = o.epoch > 0 && !o.overlaps_swap && o.first_of_key;
      if (!sampled && !first_after_swap) continue;
      std::vector<const ServedArtifact*> live = {artifacts[o.epoch % artifacts.size()]};
      if (o.overlaps_swap) live.push_back(artifacts[(o.epoch + 1) % artifacts.size()]);
      verifier.expect(o.request.query, o.reply.schedule_hash, std::move(live), id);
    }
  }
  verifier.finish();
}

}  // namespace ledger
