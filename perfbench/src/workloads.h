// The three workloads: how each is generated from a seed, what one round of
// closed-loop steps contains, and the runners for the timed (untraced) and
// the traced pass.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "model.h"
#include "service/query_service.h"

namespace perfbench {

/// One closed-loop step of the generator thread: commit a batch of scripts
/// (CommitMany; empty = no commit), then issue at most one consistent read.
struct Step {
  std::vector<Script> commits;
  bool has_read = false;
  Query read;
};

/// What every read of a workload must have done.
enum class Expect {
  kProver,      ///< routed to the prover, prover_invocations > 0
  kFirstOrder,  ///< conflict-free or rewriting route, no prover invocation
  kPool,        ///< read through the service pool (no per-query stats)
};

struct WorkloadPlan {
  std::string name;
  /// The instance the load script creates (the oracle's starting model).
  Instance data;
  /// One round of steps; `round` picks the fresh values written in it, so
  /// every round inserts new row slots.
  std::function<std::vector<Step>(int round)> make_round;
  /// A run does round(seconds / nominal_round_seconds) rounds, at least
  /// one, rounded to a whole number of services when rounds_per_service is
  /// set (a freshly loaded service every that many rounds; 0 = one service
  /// for the whole run). nominal_round_seconds is the wall time of one
  /// round, its share of the service restarts included, on a 4-vCPU VM.
  double nominal_round_seconds = 1;
  int rounds_per_service = 0;
  Expect expect = Expect::kProver;
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// The plan of `name` for `seed`; false for an unknown name.
bool MakePlan(const std::string& name, uint64_t seed, WorkloadPlan* plan);

/// Service settings shared by every run: one pool worker, one detection
/// thread, one prover thread.
hippo::service::ServiceOptions BenchServiceOptions();

/// Timed, untraced run: set-up several times, then whole rounds of the
/// workload; fills the end-to-end metrics.
void RunTimed(const WorkloadPlan& plan, const RunConfig& cfg, Outcome* out);

/// The traced pass (layers.cc): one untimed round with the benchmark's own
/// timers around each layer's public calls; fills the per-layer metrics.
void RunTraced(const WorkloadPlan& plan, Outcome* out);

/// Checks the closed-form oracle against all-repairs ground truth on small
/// instances of the workload's generator (selftest.cc).
void SelfTest(const std::string& workload, uint64_t seed, Outcome* out);

/// Reference measurements recorded in README.md (not a workload).
int RunReference();

}  // namespace perfbench
