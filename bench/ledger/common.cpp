#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/types.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ledger {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return dt.count();
}

std::uint64_t input_seed(const Config& config, std::uint64_t stream) {
  return sweep::util::split_seed(config.seed, stream);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::pair<double, double> quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    const double v = values.empty() ? 0.0 : values[0];
    return {v, v};
  }
  std::sort(values.begin(), values.end());
  const auto at = [&](double pos) {  // 1-based fractional position
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(lo);
    const std::size_t n = values.size();
    const double a = values[std::clamp<std::size_t>(lo, 1, n) - 1];
    const double b = values[std::clamp<std::size_t>(lo + 1, 1, n) - 1];
    return a + frac * (b - a);
  };
  const double m = static_cast<double>(values.size()) + 1.0;
  return {at(m * 0.25), at(m * 0.75)};
}

std::uint64_t schedule_checksum(const sweep::core::Schedule& schedule) {
  using sweep::util::fnv1a_span;
  return fnv1a_span<sweep::core::TimeStep>(
      schedule.starts(),
      fnv1a_span<sweep::core::ProcessorId>(schedule.assignment()));
}

void Ledger::add(const std::string& metric, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  samples_[metric].push_back(value);
}

bool Ledger::has(const std::string& metric) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return samples_.count(metric) != 0;
}

double Ledger::median_of(const std::string& metric) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = samples_.find(metric);
  return it == samples_.end() ? 0.0 : median(it->second);
}

void Gate::fail(const std::string& what) {
  failed_.fetch_add(1);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (reported_++ < 20) std::fprintf(stderr, "GATE: %s\n", what.c_str());
}

void Gate::expect_equal(std::uint64_t got, std::uint64_t want,
                        const std::string& what) {
  attempt();
  if (got != want) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), ": %016llx != %016llx",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    fail(what + buffer);
  }
}

double host_kernel_s() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(std::size_t{8} << 20);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    return t;
  }();
  static std::atomic<std::uint64_t> sink{0};
  const std::size_t mask = table.size() - 1;
  const double t0 = now_s();
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a, in registers
  for (std::uint64_t i = 0; i < 10'000'000; ++i) {
    hash = (hash ^ i) * 1099511628211ull;
  }
  std::uint64_t x = 1;  // LCG-driven reads, mostly L3 hits
  std::uint64_t sum = 0;
  for (int i = 0; i < 1'500'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    sum += table[(x >> 20) & mask];
  }
  const double dt = now_s() - t0;
  sink.fetch_add(hash + sum, std::memory_order_relaxed);
  return dt;
}

Metrics end_to_end_metrics(const EndToEndSamples& s) {
  Metrics out;
  const double kernel = median(s.kernel_s);
  const double speed = kernel > 0.0 ? kReferenceKernelS / kernel : 1.0;
  std::fprintf(stderr, "host kernel %.6g s (n=%zu): timings below are raw; reported x%.4f\n",
               kernel, s.kernel_s.size(), speed);
  const auto put = [&](const char* name, const std::vector<double>& values,
                       double value, double scale, const char* unit) {
    if (values.empty()) std::fprintf(stderr, "ledger: no samples for %s\n", name);
    const auto [q1, q3] = quartiles(values);
    std::fprintf(stderr, "%-22s %14.6g %-10s n=%zu min=%.6g q1=%.6g q3=%.6g max=%.6g\n",
                 name, value, unit, values.size(),
                 values.empty() ? 0.0 : *std::min_element(values.begin(), values.end()),
                 q1, q3,
                 values.empty() ? 0.0 : *std::max_element(values.begin(), values.end()));
    out.add(name, value * scale, unit);
  };
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  put("setup_s", s.setup_s, median(s.setup_s), speed, "s");
  put("batch_s", s.batch_s, median(s.batch_s), speed, "s");
  put("sched_tasks_per_s", s.tasks_per_s, median(s.tasks_per_s), 1.0 / speed, "tasks/s");
  put("sched_tasks_per_s_1t", s.tasks_per_s_1t, median(s.tasks_per_s_1t), 1.0 / speed,
      "tasks/s");
  put("latency_p50_ms", s.latency_ms, quantile(s.latency_ms, 0.50), speed, "ms");
  put("latency_p90_ms", s.latency_ms, quantile(s.latency_ms, 0.90), speed, "ms");
  put("makespan_over_lb", s.makespan_over_lb, mean(s.makespan_over_lb), 1.0, "ratio");
  put("c1_fraction", s.c1_fraction, mean(s.c1_fraction), 1.0, "ratio");
  put("c2_delay_per_task", s.c2_delay_per_task, mean(s.c2_delay_per_task), 1.0, "steps/task");
  put("peak_rss_mb", {s.peak_rss_mb}, s.peak_rss_mb, 1.0, "MiB");
  return out;
}

void OverheadProbe::begin_pass(std::size_t pass) {
  if (!traced_) return;
  const bool armed = pass % 2 == 0;
  sweep::obs::set_metrics_enabled(armed);
  if (armed) {
    sweep::obs::start_tracing();
  } else {
    sweep::obs::stop_tracing();
  }
}

void OverheadProbe::end_pass(std::size_t pass, double seconds) {
  if (traced_) (pass % 2 == 0 ? armed_ : disarmed_).push_back(seconds);
}

void OverheadProbe::finish(Ledger& ledger) {
  if (!traced_) return;
  sweep::obs::set_metrics_enabled(true);
  sweep::obs::start_tracing();
  const double off = median(disarmed_);
  ledger.add("obs.trace_overhead_pct",
             off > 0.0 ? 100.0 * (median(armed_) / off - 1.0) : 0.0);
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

HostInfo host_info() {
  HostInfo info;
  info.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) info.cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ifstream l3("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string size;
  if (l3 >> size && !size.empty()) {
    std::size_t value = std::stoul(size);
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    info.l3_bytes = value;
  }
  return info;
}

double stream_triad_gbps(std::size_t l3_bytes) {
  // Three double arrays together >= 4x L3 (32 MiB floor when L3 is unknown).
  const std::size_t total = std::max<std::size_t>(4 * l3_bytes, 32u << 20);
  const std::size_t n = total / (3 * sizeof(double));
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t chunk = (n + workers - 1) / workers;
  const auto over_chunks = [&](auto&& body) {
    sweep::util::parallel_for(
        workers,
        [&](std::size_t w) {
          const std::size_t lo = w * chunk;
          const std::size_t hi = std::min(n, lo + chunk);
          for (std::size_t i = lo; i < hi; ++i) body(i);
        },
        workers);
  };
  over_chunks([&](std::size_t i) {  // first touch by the worker that streams
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  });
  double best = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    const double t0 = now_s();
    over_chunks([&](std::size_t i) { a[i] = b[i] + 3.0 * c[i]; });
    const double dt = now_s() - t0;
    if (dt > 0.0) {
      best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) /
                                dt / 1e9);
    }
  }
  if (a[n / 2] != 7.0) std::fprintf(stderr, "stream: triad result wrong\n");
  return best;
}

}  // namespace ledger
