#include "util.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

std::vector<double> Tracer::Seconds(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e9);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  // Children may overlap (concurrent requests under one phase span), so a
  // parent's covered time is the union of its children's intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = spans_[i].start_ns;
    for (const auto& [begin, end] : kids) {
      const std::int64_t from = std::max(begin, cursor);
      const std::int64_t to = std::min(end, spans_[i].end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    out[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - covered) / 1e9;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path, bool append,
                        std::size_t first_id) const {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << first_id + i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":"
        << (s.parent < 0 ? -1 : static_cast<std::int64_t>(first_id) + s.parent)
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const MetricSet& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, value] : metrics.values) {
    // Full round-trip precision: the value exactly as measured. A value that
    // is not finite (every request failed) is not valid JSON; such a run is
    // already reported as incorrect, so it prints as -1.
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value.first) ? value.first : -1.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            value.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

QuietCpu::QuietCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  if (cpu == CPU_SETSIZE) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
  spinner_ = std::thread([this] {
    // Spinning at normal priority would take CPU from the measured
    // threads; without SCHED_IDLE the spinner does nothing.
    sched_param param{};
    if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  });
}

QuietCpu::~QuietCpu() {
  stop_ = true;
  if (spinner_.joinable()) spinner_.join();
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
