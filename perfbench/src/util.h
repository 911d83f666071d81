// Small helpers shared by the benchmark program: a seeded RNG that does not
// depend on the library, clocks, order statistics, in-memory spans and the
// metric record printed at the end of a run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the benchmark's own generator, so inputs stay the same for a
/// seed whatever the library's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Uniform(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  double UniformDouble() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  /// Exponential inter-arrival gap (seconds) of a Poisson process.
  double ExpGap(double rate) { return -std::log(1.0 - UniformDouble()) / rate; }

  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[Uniform(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Median of `values` (mean of the middle pair for even sizes).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1].
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// The tail the benchmark reports: p90 once at least 100 requests were
/// timed (so at least ten lie beyond it); with fewer, the highest percentile
/// that still has ten samples beyond it, i.e. the eleventh-largest value
/// (the largest when there are fewer than eleven). Higher percentiles are
/// printed on stderr but not reported: on a shared one-core host they
/// measure the host's stalls and do not repeat from run to run.
inline double TailValue(std::vector<double> values, double* percentile) {
  if (values.empty()) return 0;
  const std::size_t n = values.size();
  if (n >= 100) {
    if (percentile != nullptr) *percentile = 90;
    return Quantile(std::move(values), 0.9);
  }
  std::sort(values.begin(), values.end());
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  }
  return values[index];
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// In-memory spans. Each span has a name, start, end, parent and request
/// id; the spans are written out only when the run ends. A disabled tracer
/// records nothing, so the untraced measurement pays one branch per span.
class Tracer {
 public:
  /// Span names must outlive the tracer (string literals or static tables).
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index or -1.
  int Begin(const char* name, std::uint64_t request = 0) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent, request});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }
  /// Records a finished span from timestamps taken elsewhere (for example
  /// by the open-loop reader thread), under the innermost open span.
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t request, int parent = -2) {
    if (!enabled_) return;
    if (parent == -2) parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, start_ns, end_ns, parent, request});
  }
  int Last() const { return static_cast<int>(spans_.size()) - 1; }

  /// Total self time (seconds) per span name: each span's duration minus
  /// the part of it its direct children cover.
  std::map<std::string, double> SelfSecondsByName() const;
  /// Total duration (seconds) of every span with `name`.
  std::vector<double> Seconds(const std::string& name) const;

  std::size_t size() const { return spans_.size(); }
  /// Writes one JSON object per span, numbering spans (and parent links)
  /// from `first_id`; with `append`, adds to an existing file.
  bool WriteJsonl(const std::string& path, bool append, std::size_t first_id) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// The metrics of one run, keyed by name, with units.
struct MetricSet {
  std::map<std::string, std::pair<double, std::string>> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

/// Prints the run's result record: one JSON object on one line.
void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const MetricSet& metrics);

/// Runs the measurement on one quiet CPU. The calling thread, and every
/// thread it starts afterwards, is confined to the first CPU it may use, and
/// a spinner thread at SCHED_IDLE priority keeps that CPU from halting. On a
/// virtual machine whose CPUs the hypervisor time-shares, waking a halted
/// CPU costs a variable, often multi-millisecond delay that has nothing to do
/// with the program and swamps serving latencies; with the CPU kept busy, a
/// wake-up is an ordinary context switch. The spinner only runs when no
/// measured thread is runnable. Hosts of this kind behave like one core, so
/// confining the threads to one CPU costs no parallelism that exists.
class QuietCpu {
 public:
  QuietCpu();
  ~QuietCpu();
  QuietCpu(const QuietCpu&) = delete;
  QuietCpu& operator=(const QuietCpu&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread spinner_;
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench
