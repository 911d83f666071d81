// perfbench: the benchmark binary. run.py builds it and calls it
// twice per run, so that input generation never shares a process (or its
// peak memory) with the measurement:
//
//   perfbench gen --workload W --seed S --seconds T --dir D
//       writes the run's inputs (edge list, snapshot, op stream, reference
//       answers) into D.
//   perfbench run --workload W --seed S --seconds T --trace 0|1 --dir D
//                 [--spans FILE]
//       measures and prints one JSON result line. --trace 0 reports the
//       end-to-end metrics; --trace 1 measures the workload untraced and
//       traced (half of T each), runs the layer probes under spans, writes
//       the spans to FILE and reports the per-layer metrics, including the
//       tracing overhead on each end-to-end metric.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string command;
  Ctx ctx;
  bool trace = false;
  std::string spans;
};

bool Parse(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->ctx.workload = value;
    } else if (key == "--seed") {
      args->ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value != "0";
    } else if (key == "--dir") {
      args->ctx.dir = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args->ctx.workload;
  return known && !args->ctx.dir.empty() && args->ctx.seconds > 0 &&
         (args->command == "gen" || args->command == "run");
}

int Run(const Args& args) {
  const QuietCpu quiet;
  const Ctx& ctx = args.ctx;
  MetricSet metrics;
  if (!args.trace) {
    Tracer off(false);
    const E2E e2e = RunWorkload(ctx, ctx.seconds, off);
    AddEndToEndMetrics(e2e, &metrics);
    PrintResult(e2e.failed == 0, e2e.attempted, e2e.failed, metrics);
    return 0;
  }
  Tracer off(false);
  Tracer on(true);
  std::cerr << "untraced half:\n";
  const E2E plain = RunWorkload(ctx, ctx.seconds / 2, off);
  std::cerr << "traced half:\n";
  const E2E traced = RunWorkload(ctx, ctx.seconds / 2, on);
  MetricSet a, b;
  AddEndToEndMetrics(plain, &a);
  AddEndToEndMetrics(traced, &b);
  for (const char* name : {"setup_s", "p50_ms", "tail_ms"}) {
    const auto& [value, unit] = b.values.at(name);
    metrics.Set(std::string("trace.overhead.") + name, value - a.values.at(name).first,
                unit);
  }
  std::cerr << "layer probes:\n";
  Tracer probes(true);
  const Checks probe = RunProbes(ctx, probes, &metrics);
  // Where the traced run's time went, by span self time.
  for (const Tracer* tracer : {&on, &probes}) {
    std::vector<std::pair<double, std::string>> self;
    for (const auto& [name, seconds] : tracer->SelfSecondsByName()) {
      self.emplace_back(seconds, name);
    }
    std::sort(self.rbegin(), self.rend());
    std::cerr << (tracer == &on ? "self time, traced workload half:\n"
                                : "self time, layer probes:\n");
    for (std::size_t i = 0; i < self.size() && i < 12; ++i) {
      std::cerr << "  " << self[i].second << " " << self[i].first << " s\n";
    }
  }
  if (!args.spans.empty()) {
    on.WriteJsonl(args.spans, /*append=*/false, /*first_id=*/0);
    probes.WriteJsonl(args.spans, /*append=*/true, /*first_id=*/on.size());
  }
  const std::uint64_t failed = plain.failed + traced.failed + probe.failed;
  PrintResult(failed == 0, plain.attempted + traced.attempted + probe.attempted,
              failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::cerr << "usage: perfbench gen|run --workload NAME --seed N --seconds T "
                 "--dir DIR [--trace 0|1] [--spans FILE]\n";
    return 2;
  }
  try {
    if (args.command == "gen") {
      if (!GenerateInputs(args.ctx)) return 3;
      return 0;
    }
    return Run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << args.command << " failed: " << e.what() << "\n";
    return 1;
  }
}
