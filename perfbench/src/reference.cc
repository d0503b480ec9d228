// --reference: the one-off figures README.md quotes beside the workloads —
// how a one-row commit scales with table size, what parallel detection
// buys on a large instance, how the prover's cost grows with the data, and
// how the KW narrowing projection's cost grows with the keys it covers.
// Printed as text; not part of any workload's result.
#include <cstdio>
#include <string>
#include <vector>

#include "db/database.h"
#include "detect/detector.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hippo::service::CommitReceipt;
using hippo::service::QueryService;

bool Check(const hippo::Status& st, const char* what) {
  if (!st.ok()) std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  return st.ok();
}

/// Median latency, apply and publish of 20 single-statement commits on a
/// sparse instance of `n` rows per relation.
bool OneRowCommit(size_t n) {
  Instance data = SparseInstance(n, 0.05, 1);
  QueryService service(BenchServiceOptions());
  if (!Check(service.Commit(data.LoadSql()), "load")) return false;
  Rng rng(7);
  std::vector<int64_t> keys =
      PickConsistentKeys(data.p, 0, static_cast<int64_t>(n), 10, &rng);
  std::vector<double> total, apply, publish;
  for (int phase = 0; phase < 2; ++phase) {
    for (int64_t k : keys) {
      Mutation m{phase == 0, k, 1000000};
      auto t0 = Clock::now();
      CommitReceipt r = service.CommitAsync(m.Sql()).get();
      total.push_back(MsSince(t0));
      if (!Check(r.status, "commit")) return false;
      apply.push_back(1e3 * r.phases.apply_seconds);
      publish.push_back(1e3 * r.phases.publish_seconds);
    }
  }
  std::printf("one-row commit, %6zu rows/relation: %8.3f ms "
              "(apply %.3f ms, publish %.3f ms)\n",
              n, Median(total), Median(apply), Median(publish));
  return true;
}

/// DetectAll on 1 and on 4 threads over a sparse instance of `n` rows per
/// relation.
bool ParallelDetect(size_t n) {
  hippo::Database db;
  if (!Check(db.Execute(SparseInstance(n, 0.05, 1).LoadSql()), "load")) {
    return false;
  }
  double secs[2] = {0, 0};
  const size_t threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    hippo::DetectOptions options;
    options.num_threads = threads[t];
    std::vector<double> runs;
    for (int i = 0; i < 5; ++i) {
      hippo::ConflictDetector detector(db.catalog(), options);
      auto t0 = Clock::now();
      auto graph = detector.DetectAll(db.constraints(), db.foreign_keys());
      runs.push_back(SecondsSince(t0));
      if (!Check(graph.status(), "detect")) return false;
    }
    secs[t] = Median(runs);
  }
  std::printf("DetectAll, %zu rows/relation: 1 thread %.3f s, 4 threads "
              "%.3f s (%.2fx)\n",
              n, secs[0], secs[1], secs[0] / secs[1]);
  return true;
}

/// The same instance loaded through the service (one bulk commit: parse,
/// apply, re-detect, publish) with one and with four threads.
bool ParallelLoad(size_t n) {
  const std::string load = SparseInstance(n, 0.05, 1).LoadSql();
  double secs[2] = {0, 0};
  const size_t threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) {
      hippo::service::ServiceOptions options;
      options.threads = threads[t];
      auto t0 = Clock::now();
      QueryService service(options);
      if (!Check(service.Commit(load), "load")) return false;
      runs.push_back(SecondsSince(t0));
    }
    secs[t] = Median(runs);
  }
  std::printf("service bulk load, %zu rows/relation: 1 thread %.3f s, "
              "4 threads %.3f s (%.2fx)\n",
              n, secs[0], secs[1], secs[0] / secs[1]);
  return true;
}

/// Prover-routed union latency on sparse instances of growing size.
bool ProverGrowth(size_t n) {
  hippo::Database db;
  if (!Check(db.Execute(SparseInstance(n, 0.05, 1).LoadSql()), "load")) {
    return false;
  }
  const std::string sql = Query{QueryKind::kUnion}.Sql();
  std::vector<double> runs;
  for (int i = 0; i < 4; ++i) {
    hippo::cqa::HippoStats stats;
    auto t0 = Clock::now();
    auto rs = db.ConsistentAnswers(sql, hippo::cqa::HippoOptions(), &stats);
    if (i > 0) runs.push_back(MsSince(t0));  // the first builds the graph
    if (!Check(rs.status(), "union")) return false;
  }
  std::printf("prover union, %6zu rows/relation: %9.3f ms (%.4f ms/row)\n", n,
              Median(runs), Median(runs) / static_cast<double>(n));
  return true;
}

/// KW-routed `SELECT a FROM p WHERE a >= 0 AND a < range` on the
/// rewrite-dense instance (4096 tuples of p, keys in [0, 4096)).
bool NarrowingGrowth(int64_t range) {
  hippo::Database db;
  if (!Check(db.Execute(DenseInstance(4096, 64, 0.8, 1).LoadSql()), "load")) {
    return false;
  }
  const std::string sql = Query{QueryKind::kNarrow, 0, range}.Sql();
  std::vector<double> runs;
  hippo::RouteKind route = hippo::RouteKind::kProver;
  for (int i = 0; i < 4; ++i) {
    hippo::cqa::HippoStats stats;
    auto t0 = Clock::now();
    auto rs = db.ConsistentAnswers(sql, hippo::cqa::HippoOptions(), &stats);
    if (i > 0) runs.push_back(MsSince(t0));  // the first builds the graph
    if (!Check(rs.status(), "narrowing")) return false;
    route = stats.route;
  }
  std::printf("narrowing over %4lld keys of 4096: %9.3f ms (route %s)\n",
              static_cast<long long>(range), Median(runs),
              hippo::RouteKindName(route));
  return true;
}

}  // namespace

int RunReference() {
  for (size_t n : {5000, 20000, 100000}) {
    if (!OneRowCommit(n)) return 1;
  }
  for (size_t n : {10000, 20000, 50000}) {
    if (!ProverGrowth(n)) return 1;
  }
  for (int64_t range : {64, 256, 1024, 4096}) {
    if (!NarrowingGrowth(range)) return 1;
  }
  if (!ParallelDetect(200000)) return 1;
  if (!ParallelLoad(200000)) return 1;
  return 0;
}

}  // namespace perfbench
