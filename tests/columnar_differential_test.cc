// Batch-executor differential battery: the vectorized columnar executor
// must return exactly the rows, in exactly the order, that the naive
// evaluator of tests/naive_oracle.h returns — on every pool query's plan
// (as planned and as optimized), on its envelope, and on its first-order
// rewriting when the router has one, serially and with every operator
// partitioned. Consistent answers on every route must equal, as sets, the
// intersection of the naive evaluator's output over every repair, and
// detection (serial, parallel, partitioned, and the database's own
// hypergraph) must equal NaiveDetect, with edge ids identical across
// parallel configurations. All of it must survive view-invalidating
// writes (inserts rebuild Table's memoized columnar view, deletes
// tombstone under it). Instances are seeded random and NULL-heavy, since
// SQL three-valued logic and NULL join keys are where vectorized kernels
// classically diverge.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "cqa/envelope.h"
#include "db/database.h"
#include "detect/detector.h"
#include "plan/optimizer.h"
#include "plan/router.h"
#include "plan/sjud.h"
#include "repairs/repair_enumerator.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

std::string RandomValue(std::mt19937_64* rng, double null_rate, int domain) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(*rng) < null_rate) return "NULL";
  return std::to_string(
      std::uniform_int_distribution<int>(0, domain - 1)(*rng));
}

/// r(a, b, c) with FD a -> b, c; s(d, e) with FD d -> e, an exclusion
/// constraint between r.c and s.d, and a foreign key into parent(k);
/// t(f, g) unconstrained. Tiny NULL-seasoned domains force conflicts,
/// orphans, and NULL keys on every path. One clean row per table, outside
/// the random domains, is in no conflict, survives the writes below, and
/// gives the set-operation and join queries certain answers.
void BuildRandomInstance(Database* db, uint64_t seed, double null_rate) {
  ASSERT_OK(db->Execute(
      "CREATE TABLE parent (k INTEGER);"
      "CREATE TABLE r (a INTEGER, b INTEGER, c INTEGER);"
      "CREATE CONSTRAINT pk_r FD ON r (a -> b, c);"
      "CREATE TABLE s (d INTEGER, e INTEGER);"
      "CREATE CONSTRAINT fd_s FD ON s (d -> e);"
      "CREATE CONSTRAINT excl EXCLUSION ON r (c), s (d);"
      "CREATE CONSTRAINT fk_s FOREIGN KEY s (e) REFERENCES parent (k);"
      "CREATE TABLE t (f INTEGER, g INTEGER);"
      "INSERT INTO parent VALUES (2);"
      "INSERT INTO r VALUES (9, 3, 8);"
      "INSERT INTO s VALUES (9, 2);"
      "INSERT INTO t VALUES (9, 2)"));
  std::mt19937_64 rng(seed);
  std::string script;
  for (int i = 0; i < 3; ++i) {
    script += "INSERT INTO parent VALUES (" + RandomValue(&rng, 0.0, 4) + ");";
  }
  for (int i = 0; i < 14; ++i) {
    script += "INSERT INTO r VALUES (" + RandomValue(&rng, null_rate / 2, 5) +
              ", " + RandomValue(&rng, null_rate, 4) + ", " +
              RandomValue(&rng, null_rate, 4) + ");";
  }
  for (int i = 0; i < 10; ++i) {
    script += "INSERT INTO s VALUES (" + RandomValue(&rng, null_rate / 2, 4) +
              ", " + RandomValue(&rng, null_rate, 5) + ");";
  }
  for (int i = 0; i < 6; ++i) {
    script += "INSERT INTO t VALUES (" + RandomValue(&rng, null_rate, 4) +
              ", " + RandomValue(&rng, null_rate, 4) + ");";
  }
  ASSERT_OK(db->Execute(script));
}

/// Queries spanning every batch operator: filter (typed loops, NULL
/// literals, IS NULL over validity bits), zero-copy and computed
/// projection, hash and nested-loop joins, anti-joins (via rewriting),
/// sort (column-key and expression-key), set operations, aggregation.
std::vector<std::string> QueryPool() {
  return {
      "SELECT * FROM r",
      "SELECT * FROM r ORDER BY a",
      "SELECT * FROM r WHERE b > 1",
      "SELECT * FROM r WHERE b IS NULL",
      "SELECT * FROM r WHERE c IS NOT NULL ORDER BY b",
      "SELECT * FROM r WHERE a = 2.0",  // mixed-type comparison loop
      "SELECT c, a, b FROM r",          // zero-copy column reorder
      "SELECT a + b FROM r",            // computed projection
      "SELECT a FROM r ORDER BY a",
      "SELECT * FROM s WHERE e = 2",
      "SELECT * FROM r, s WHERE r.a = s.d",
      "SELECT r.a FROM r, s WHERE r.a = s.d",
      "SELECT * FROM r, s WHERE r.a < s.d",  // no equi-key: NL join
      "SELECT a, b FROM r EXCEPT SELECT d, e FROM s",
      "SELECT d, e FROM s UNION SELECT f, g FROM t",
      "SELECT d, e FROM s INTERSECT SELECT f, g FROM t",
      "SELECT f FROM t ORDER BY f",
      "SELECT * FROM t ORDER BY f + g DESC, g",  // expression sort key
      "SELECT b, COUNT(*) FROM r GROUP BY b",
  };
}

/// Execute must return the naive evaluator's rows in the naive order,
/// serially and with every operator split into single-row partitions.
void ExpectExecuteMatchesNaive(const Catalog& catalog, const PlanNode& plan,
                               const std::string& what) {
  auto want = NaiveExecute(plan, catalog, nullptr);
  ASSERT_OK(want.status()) << what;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecContext ctx{&catalog, nullptr};
    ctx.parallel.num_threads = threads;
    ctx.parallel.min_partition_rows = 1;
    auto got = Execute(plan, ctx);
    ASSERT_OK(got.status()) << what;
    EXPECT_EQ(got.value().rows, want.value())
        << what << " x" << threads
        << ": batch executor diverged from the naive evaluator";
  }
}

/// The plan as planned and as optimized, its envelope (SJUD plans), and
/// its first-order rewriting when the router has one.
void CheckPlans(Database* db, const std::string& sql) {
  auto plan = db->Plan(sql);
  ASSERT_OK(plan.status()) << sql;
  const Catalog& catalog = db->catalog();
  ExpectExecuteMatchesNaive(catalog, *plan.value(), sql + " [plan]");
  ExpectExecuteMatchesNaive(catalog, *OptimizePlan(*plan.value()),
                            sql + " [optimized]");
  if (CheckSjudSupported(*plan.value()).ok()) {
    ExpectExecuteMatchesNaive(catalog, *cqa::BuildEnvelope(*plan.value()),
                              sql + " [envelope]");
  }
  auto graph = db->Hypergraph();
  ASSERT_OK(graph.status());
  auto route = ClassifyRoute(*plan.value(), catalog, &db->constraints(),
                             &db->foreign_keys(), graph.value(),
                             RouteMode::kForceRewrite);
  if (route.ok() && route.value().rewritten != nullptr) {
    ExpectExecuteMatchesNaive(catalog, *route.value().rewritten,
                              sql + " [rewritten]");
  }
}

/// Queries whose certain answers the clean rows keep non-empty, so the
/// set operations and the join are checked on real answers, not on empty
/// sets.
bool HasCertainAnswers(const std::string& sql) {
  for (const char* q : {"SELECT * FROM r, s WHERE r.a = s.d",
                        "SELECT a, b FROM r EXCEPT SELECT d, e FROM s",
                        "SELECT d, e FROM s UNION SELECT f, g FROM t",
                        "SELECT d, e FROM s INTERSECT SELECT f, g FROM t"}) {
    if (sql == q) return true;
  }
  return false;
}

/// Consistent answers on every route the router can take must equal the
/// rows the naive evaluator returns over every repair. A route may refuse
/// a query only with NotSupported, and the auto and prover routes serve
/// every SJUD query.
void CheckCertainAnswers(Database* db, const std::string& sql,
                         const std::vector<RowMask>& repairs) {
  auto plan = db->Plan(sql);
  ASSERT_OK(plan.status()) << sql;
  std::vector<Row> certain;
  for (size_t i = 0; i < repairs.size(); ++i) {
    auto rows = NaiveExecute(*plan.value(), db->catalog(), &repairs[i]);
    ASSERT_OK(rows.status()) << sql;
    if (i == 0) {
      certain = naive_internal::Distinct(rows.value());
      continue;
    }
    std::vector<Row> kept;
    for (const Row& row : certain) {
      if (naive_internal::Contains(rows.value(), row)) kept.push_back(row);
    }
    certain = std::move(kept);
  }
  certain = SortedRows(std::move(certain));
  if (HasCertainAnswers(sql)) {
    EXPECT_FALSE(certain.empty()) << sql << ": no certain answers";
  }

  bool sjud = CheckSjudSupported(*plan.value()).ok();
  for (RouteMode route : {RouteMode::kAuto, RouteMode::kForceRewrite,
                          RouteMode::kForceProver}) {
    cqa::HippoOptions options;
    options.route = route;
    auto got = db->ConsistentAnswers(sql, options);
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotSupported)
          << sql << ": " << got.status().ToString();
      EXPECT_FALSE(sjud && route != RouteMode::kForceRewrite)
          << sql << " (route mode " << RouteModeName(route)
          << "): an SJUD query was refused";
      continue;
    }
    EXPECT_EQ(SortedRows(got.value()), certain)
        << sql << " (route mode " << RouteModeName(route)
        << "): consistent answers differ from the all-repairs intersection";
  }
}

/// Full id-level dump of a hypergraph: (edge id, vertices, constraint).
using EdgeDump = std::vector<std::tuple<size_t, std::vector<RowId>, uint32_t>>;

EdgeDump DumpEdges(const ConflictHypergraph& g) {
  EdgeDump dump;
  for (size_t e = 0; e < g.NumEdgeSlots(); ++e) {
    auto id = static_cast<ConflictHypergraph::EdgeId>(e);
    if (!g.EdgeAlive(id)) continue;
    dump.emplace_back(e, g.edge(id), g.edge_constraint(id));
  }
  return dump;
}

ConflictHypergraph DetectWith(Database* db, const DetectOptions& options) {
  ConflictDetector detector(db->catalog(), options);
  auto g = detector.DetectAll(db->constraints(), db->foreign_keys());
  EXPECT_OK(g.status());
  return g.ok() ? std::move(g).value() : ConflictHypergraph();
}

/// Serial, generic-path, and parallel detection must find NaiveDetect's
/// edges and provenance; the parallel runs (whole units, and every
/// constraint split into single-row partitions and shards) must also agree
/// on every edge id.
void CheckDetection(Database* db) {
  auto naive =
      NaiveDetect(db->catalog(), db->constraints(), db->foreign_keys())
          .CanonicalEdges();

  DetectOptions serial;
  EXPECT_EQ(DetectWith(db, serial).CanonicalEdges(), naive)
      << "serial detection diverged from the naive detector";
  DetectOptions generic;
  generic.use_fd_fast_path = false;
  EXPECT_EQ(DetectWith(db, generic).CanonicalEdges(), naive)
      << "generic-join detection diverged from the naive detector";
  auto maintained = db->Hypergraph();
  ASSERT_OK(maintained.status());
  EXPECT_EQ(maintained.value()->CanonicalEdges(), naive)
      << "the database's hypergraph diverged from the naive detector";

  DetectOptions parallel;
  parallel.num_threads = 4;
  ConflictHypergraph reference = DetectWith(db, parallel);
  EXPECT_EQ(reference.CanonicalEdges(), naive)
      << "parallel detection diverged from the naive detector";
  DetectOptions two = parallel;
  two.num_threads = 2;
  DetectOptions split = parallel;
  split.shard_rows = 1;
  split.partition_rows = 1;
  for (const DetectOptions& options : {two, split}) {
    EXPECT_EQ(DumpEdges(DetectWith(db, options)), DumpEdges(reference))
        << "edge ids depend on the parallel configuration ("
        << options.num_threads << " threads, partition_rows "
        << options.partition_rows << ")";
  }
}

/// The whole battery on the instance's current state.
void CheckAll(Database* db) {
  for (const std::string& sql : QueryPool()) {
    CheckPlans(db, sql);
    if (::testing::Test::HasFatalFailure()) return;
  }
  auto graph = db->Hypergraph();
  ASSERT_OK(graph.status());
  auto repairs = RepairEnumerator(db->catalog(), *graph.value())
                     .EnumerateMasks(/*limit=*/100000);
  ASSERT_OK(repairs.status());
  for (const std::string& sql : QueryPool()) {
    CheckCertainAnswers(db, sql, repairs.value());
    if (::testing::Test::HasFatalFailure()) return;
  }
  CheckDetection(db);
}

class ColumnarDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarDifferential, BatchMatchesNaiveOnNullHeavyInstances) {
  Database db;
  BuildRandomInstance(&db, GetParam(), /*null_rate=*/0.35);
  if (::testing::Test::HasFatalFailure()) return;
  CheckAll(&db);
}

TEST_P(ColumnarDifferential, BatchMatchesNaiveAfterViewInvalidatingWrites) {
  Database db;
  BuildRandomInstance(&db, GetParam(), /*null_rate=*/0.35);
  if (::testing::Test::HasFatalFailure()) return;

  // Materialize the columnar views (and the hypergraph) so the writes
  // below exercise invalidation and maintenance, not first builds.
  CheckPlans(&db, "SELECT * FROM r");
  CheckDetection(&db);
  if (::testing::Test::HasFatalFailure()) return;

  std::mt19937_64 rng(GetParam() ^ 0x5eedULL);
  // Inserts append slots (view rebuilt); deletes tombstone in place (view
  // kept, liveness handled by the scan selection); the UPDATE does both.
  ASSERT_OK(db.Execute(
      "INSERT INTO r VALUES (" + RandomValue(&rng, 0.2, 5) + ", " +
      RandomValue(&rng, 0.2, 4) + ", NULL);"
      "INSERT INTO s VALUES (0, " + RandomValue(&rng, 0.2, 5) + ");"
      "DELETE FROM r WHERE b = 1;"
      "DELETE FROM s WHERE d IS NULL;"
      "UPDATE t SET g = 7 WHERE f = 2"));
  CheckAll(&db);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDifferential,
                         ::testing::Values(1u, 7u, 42u, 101u, 2024u, 90210u));

}  // namespace
}  // namespace hippo
