// Shared helpers for the benchmark binaries.
//
// Each binary regenerates one table/figure of the evaluation (see DESIGN.md
// §4 and EXPERIMENTS.md): it first prints the paper-style data table
// (single timed runs via steady_clock), then runs the registered
// google-benchmark series for statistically robust timings.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "benchutil/report.h"
#include "benchutil/workload.h"
#include "common/macros.h"
#include "db/database.h"

namespace hippo::bench {

/// Wall-clock time of one invocation of `fn`, in seconds.
inline double TimeOnce(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Cache of generated databases keyed by (builder tag, n, conflict%*10000),
/// so google-benchmark iterations do not re-generate data.
class DbCache {
 public:
  using Builder = Status (*)(Database*, const WorkloadSpec&);

  static Database* Get(const std::string& tag, Builder builder, size_t n,
                       double conflict_rate, uint64_t seed = 42) {
    static std::map<std::string, std::unique_ptr<Database>> cache;
    std::string key =
        tag + "/" + std::to_string(n) + "/" +
        std::to_string(static_cast<int>(conflict_rate * 10000)) + "/" +
        std::to_string(seed);
    auto it = cache.find(key);
    if (it == cache.end()) {
      auto db = std::make_unique<Database>();
      WorkloadSpec spec;
      spec.tuples_per_relation = n;
      spec.conflict_rate = conflict_rate;
      spec.seed = seed;
      Status st = builder(db.get(), spec);
      HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
      it = cache.emplace(key, std::move(db)).first;
    }
    return it->second.get();
  }
};

/// Forces hypergraph construction so detection cost is not billed to the
/// first consistent-answer call.
inline void WarmHypergraph(Database* db) {
  auto g = db->Hypergraph();
  HIPPO_CHECK_MSG(g.ok(), g.status().ToString().c_str());
}

// The paper's two modes. Both pin the prover route, so the paper series
// measure the paper's pipeline (envelope, grounding, HProver) rather than
// whichever route the router would pick; a bench comparing routes sets
// `route` itself.
inline cqa::HippoOptions KgOptions(bool filtering = true) {
  cqa::HippoOptions opt;
  opt.membership = cqa::HippoOptions::MembershipMode::kKnowledgeGathering;
  opt.use_filtering = filtering;
  opt.route = RouteMode::kForceProver;
  return opt;
}

inline cqa::HippoOptions BaseOptions(bool filtering = false) {
  cqa::HippoOptions opt;
  opt.membership = cqa::HippoOptions::MembershipMode::kQuery;
  opt.use_filtering = filtering;
  opt.route = RouteMode::kForceProver;
  return opt;
}

/// Asserts that a paper-series call did the paper's work: it ran on the
/// prover route, grounded candidates through membership checks and, when
/// the instance has conflicts, invoked the prover.
inline void CheckProverWork(const cqa::HippoStats& stats, bool conflicts) {
  HIPPO_CHECK(stats.routed_prover > 0);
  HIPPO_CHECK(stats.candidates > 0);
  HIPPO_CHECK(stats.membership_checks > 0);
  if (conflicts) HIPPO_CHECK(stats.prover_invocations > 0);
}

/// True when `--table-only` is among the arguments: print the paper-style
/// tables and skip the google-benchmark series.
inline bool TableOnly(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--table-only") return true;
  }
  return false;
}

/// Smoke mode (`--smoke`): table printers shrink their workloads to sizes
/// a CI runner finishes in seconds — catches bench-build and runtime rot
/// without producing meaningful timings. Set by HIPPO_BENCH_MAIN before
/// the printers run.
inline bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

/// Removes `flag` from argv (so google-benchmark's own flag parsing never
/// sees it) and reports whether it was present.
inline bool ConsumeFlag(int* argc, char** argv, const std::string& flag) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (argv[i] == flag) {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[out] = nullptr;  // restore the argv[argc] == NULL sentinel
  return found;
}

}  // namespace hippo::bench

/// Standard entry point shared by every bench binary: run the paper-style
/// table printer(s), then the registered google-benchmark series (skipped
/// under `--table-only`).
#define HIPPO_BENCH_MAIN(print_tables)                            \
  int main(int argc, char** argv) {                               \
    ::hippo::bench::SmokeMode() =                                 \
        ::hippo::bench::ConsumeFlag(&argc, argv, "--smoke");      \
    print_tables;                                                 \
    if (::hippo::bench::TableOnly(argc, argv)) {                  \
      return 0;                                                   \
    }                                                             \
    benchmark::Initialize(&argc, argv);                           \
    benchmark::RunSpecifiedBenchmarks();                          \
    return 0;                                                     \
  }
