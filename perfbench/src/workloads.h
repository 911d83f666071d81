// The benchmark's workloads and its traced layer probes.
//
// Every workload reports the same end-to-end metrics for its own traffic:
//   setup_s      median time from the input files to ready to answer
//   peak_rss_mb  peak resident memory of the run
//   p50_ms       median request latency
//   tail_ms      p90 (see TailValue in util.h)
// The open-loop capacity (the rate ladder) is measured in the traced run,
// where it is a per-layer figure: on a shared one-core host it does not
// repeat closely enough to carry a regression bound.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.h"
#include "inputs.h"
#include "util.h"
#include "wire.h"

namespace perfbench {

struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string dir;  // scratch directory holding this run's inputs
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Derives an independent seed for one input stream of a run.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

/// Input files in Ctx::dir.
std::string GraphPath(const Ctx& ctx);     // edge list
std::string SnapshotPath(const Ctx& ctx);  // graph + GCT snapshot
std::string AnswersPath(const Ctx& ctx);   // reference top-r answers
std::string OpsPath(const Ctx& ctx);       // live op stream

/// Writes the run's inputs into ctx.dir. Returns false if the references
/// disagree with each other (the program is wrong before any timing).
bool GenerateInputs(const Ctx& ctx);

struct E2E {
  std::vector<double> setup_s;  // one per set-up
  double peak_rss_mb = 0;
  std::vector<double> latency_ms;  // measured requests (failed = +inf)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Sets the workload up (several times, keeping the last) and measures its
/// traffic for `seconds`. With an enabled tracer, spans are recorded around
/// every call into the library.
E2E RunWorkload(const Ctx& ctx, double seconds, Tracer& tracer);

void AddEndToEndMetrics(const E2E& e2e, MetricSet* metrics);

/// (vertex, score) pairs: what a reply frame carries.
using WireEntries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
WireEntries ToWire(const tsd::TopRResult& result);

using OpCheck = std::function<bool(const Op&, const Reply&)>;

struct LadderConfig {
  double base_rate;     // first rung, requests/s; rungs grow by sqrt(2)
  int max_rungs;
  int bisections;       // rungs that bisect (log scale) the pass/miss gap
  double rung_seconds;  // a rung sends rate * rung_seconds requests, and at
                        // least 1000 so its p99 has ten samples beyond it
  double p99_limit_ms;
};

struct LadderResult {
  double max_qps = 0;  // completed rate of the highest passing rung
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The rate ladder: a rung passes when its p99 meets the limit, no request
/// fails and its backlog does not grow. Rungs climb until one misses, then
/// bisect between the last pass and the first miss.
LadderResult RunLadder(std::vector<WireConn>& conns, const std::vector<Op>& ops,
                       const std::vector<Query>& mix, std::size_t begin,
                       const LadderConfig& config, Rng& rng, const OpCheck& check,
                       Tracer& tracer);

/// Correctness checks made outside the measured traffic.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

/// The traced layer probes: calls each layer's public functions on this
/// run's graph under spans and derives the per-layer metrics from them.
Checks RunProbes(const Ctx& ctx, Tracer& tracer, MetricSet* metrics);

}  // namespace perfbench
