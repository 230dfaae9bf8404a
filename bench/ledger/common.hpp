#pragma once
// Shared plumbing of sweep_ledger: run configuration, the sample ledger that
// times every call into a layer, the correctness gate, order statistics and
// host facts. Everything here sits outside the libraries under test; the
// ledger reaches a layer only through that layer's public functions.

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "obs/obs.hpp"

namespace ledger {

/// One run's settings (ledger.cpp parses them from the command line).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the run
  bool traced = false;    ///< per-layer run: obs armed, spans, layer probes
  bool toy = false;       ///< tiny inputs (the smoke test)
  std::string daemon;     ///< sweep_serve binary
  std::string run_dir;    ///< scratch directory for artifacts and sockets
  std::size_t nproc = 1;
};

/// Seconds on the steady clock since the first call in the process.
double now_s();

/// Seed of independent input stream `stream` of the run (util::split_seed).
std::uint64_t input_seed(const Config& config, std::uint64_t stream);

/// Order statistics over a copy of `values` (0 for an empty sample).
double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
/// First and third quartile, as Python's statistics.quantiles(n=4) gives
/// them (exclusive method), for the min/max/spread lines on stderr.
std::pair<double, double> quartiles(std::vector<double> values);

/// FNV-1a over the start array, then the assignment: the schedule
/// fingerprint the daemon reports as schedule_hash.
std::uint64_t schedule_checksum(const sweep::core::Schedule& schedule);

/// Samples of every layer metric, keyed by metric name. time() wraps one
/// call into a layer: it records the call's wall time and, in traced runs,
/// a trace span named after the metric whose argument is the id of the
/// pass or request that caused it. Thread-safe.
class Ledger {
 public:
  explicit Ledger(bool traced) : traced_(traced) {}

  template <typename F>
  decltype(auto) time(const char* metric, std::int64_t parent, F&& fn,
                      double scale = 1.0) {
    const auto t0 = std::chrono::steady_clock::now();
    struct Record {
      Ledger* self;
      const char* metric;
      std::chrono::steady_clock::time_point t0;
      double scale;
      ~Record() {
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        self->add(metric, dt.count() * scale);
      }
    } record{this, metric, t0, scale};
    const sweep::obs::TraceSpan span(traced_ ? metric : nullptr, "parent",
                                     parent);
    return fn();
  }

  void add(const std::string& metric, double value);
  [[nodiscard]] bool has(const std::string& metric) const;
  /// Median of the metric's samples (0 when it has none).
  [[nodiscard]] double median_of(const std::string& metric) const;

 private:
  bool traced_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Correctness gate: counts attempted and failed operations and keeps the
/// first failure messages for stderr.
class Gate {
 public:
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n); }
  void fail(const std::string& what);
  /// Records a checksum comparison; a mismatch counts as a failure.
  void expect_equal(std::uint64_t got, std::uint64_t want,
                    const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mutex_;
  int reported_ = 0;
};

/// Final metrics in emission order: name -> (value, unit).
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, {value, unit}});
  }
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Passes every run makes. The schedule-quality ratios come from these
/// passes only, so they are a function of the seed alone, never of how many
/// passes the run had time for.
inline constexpr std::size_t kQualityPasses = 6;

/// Wall time of one run of the host-speed kernel: 10M dependent integer
/// hash steps, then 1.5M random reads from a 32 MiB table. On the shared
/// 4-core host, other tenants move the speed of every workload here by up
/// to 70% within minutes, and this kernel's time moves with it: over 23
/// minutes of such drift, per-minute medians of a 187k-task run_algorithm
/// point and of a 4.8M-task list_schedule spread 23% and 24% between
/// quartiles, and 5% once divided by the kernel's. Neither half alone
/// tracked both (hashing: 14-15%, reads: 7-8%).
double host_kernel_s();

/// The kernel's time at the reference host speed, the speed every
/// end-to-end timing is reported at: its usual time on the 4-core host
/// when no tenant contends.
inline constexpr double kReferenceKernelS = 0.030;

/// Samples behind the end-to-end metrics. Every workload fills every field;
/// README.md defines what a pass, a schedule and an operation are in each.
struct EndToEndSamples {
  std::vector<double> setup_s;         ///< one per set-up repetition
  std::vector<double> batch_s;         ///< one per pass
  std::vector<double> tasks_per_s;     ///< jobs=nproc (or nproc clients)
  std::vector<double> tasks_per_s_1t;  ///< jobs=1 (or one client)
  std::vector<double> latency_ms;      ///< one per operation
  std::vector<double> makespan_over_lb;
  std::vector<double> c1_fraction;
  std::vector<double> c2_delay_per_task;
  double peak_rss_mb = 0.0;
  /// host_kernel_s(), sampled between the timed steps of the run.
  std::vector<double> kernel_s;

  void sample_host_speed() { kernel_s.push_back(host_kernel_s()); }
};

/// The end-to-end metrics from their samples (medians; means for the
/// schedule-quality ratios), every timing rescaled from the run's host
/// speed to the reference one: times by kReferenceKernelS / median kernel
/// time, rates by its inverse. Prints n/min/median/max of each, raw, to
/// stderr.
Metrics end_to_end_metrics(const EndToEndSamples& samples);

/// Traced runs alternate passes with the obs layer (metrics and trace)
/// armed and disarmed; the ratio of the two medians is the tracing
/// overhead. Untraced runs never arm it.
class OverheadProbe {
 public:
  explicit OverheadProbe(bool traced) : traced_(traced) {}
  void begin_pass(std::size_t pass);
  void end_pass(std::size_t pass, double seconds);
  /// Re-arms the obs layer and records obs.trace_overhead_pct. Needs at
  /// least two passes.
  void finish(Ledger& ledger);

 private:
  bool traced_;
  std::vector<double> armed_;
  std::vector<double> disarmed_;
};

/// VmHWM of `pid` (0 = this process) in MiB; 0 when unreadable.
double peak_rss_mb(pid_t pid = 0);

/// Host facts for the header line: CPU model, nproc, L3 bytes.
struct HostInfo {
  std::string cpu;
  std::size_t nproc = 1;
  std::size_t l3_bytes = 0;
};
HostInfo host_info();

/// Sustained memory bandwidth: STREAM triad a = b + s*c over three arrays
/// whose combined size is at least 4x L3, best of a few passes, in GB/s.
double stream_triad_gbps(std::size_t l3_bytes);

}  // namespace ledger
