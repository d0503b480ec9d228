// T2 — expressiveness comparison (demo §3, second claim): "we will show the
// advantages of our method over competing approaches by demonstrating the
// expressive power of supported queries and integrity constraints."
//
// The matrix is computed, not asserted: every (query class × method) cell
// runs the method on a small inconsistent instance and compares its output
// to exact all-repairs evaluation. Cells read:
//   exact   — produced exactly the consistent answers
//   WRONG   — ran, but returned a different set (unsound for CQA)
//   n/a     — method rejects the query class
#include "bench/bench_common.h"

#include "common/str_util.h"

namespace hippo::bench {
namespace {

struct QueryCase {
  const char* cls;
  const char* sql;
};

const QueryCase kQueryCases[] = {
    {"S    selection", "SELECT * FROM p WHERE b < 2"},
    {"P~   permutation", "SELECT b, a FROM p"},
    {"SJ   join", "SELECT * FROM p, q WHERE p.a = q.a"},
    {"U    union", "SELECT * FROM p UNION SELECT * FROM q"},
    {"D    difference", "SELECT * FROM p EXCEPT SELECT * FROM q"},
    {"I    intersection", "SELECT * FROM p INTERSECT SELECT * FROM q"},
    {"SJUD composite",
     "(SELECT * FROM p EXCEPT SELECT * FROM q) UNION "
     "(SELECT * FROM q EXCEPT SELECT * FROM p)"},
    {"P∃   projection", "SELECT a FROM p"},
};

std::unique_ptr<Database> MakeInstance() {
  auto db = std::make_unique<Database>();
  HIPPO_CHECK(db->Execute(
                    "CREATE TABLE p (a INTEGER, b INTEGER);"
                    "CREATE TABLE q (a INTEGER, b INTEGER);"
                    "INSERT INTO p VALUES (0,0),(0,1),(1,1),(2,2),(3,0);"
                    "INSERT INTO q VALUES (1,1),(1,2),(2,2),(4,0);"
                    "CREATE CONSTRAINT fd_p FD ON p (a -> b);"
                    "CREATE CONSTRAINT fd_q FD ON q (a -> b)")
                  .ok());
  return db;
}

std::string Cell(const Result<ResultSet>& got,
                 const Result<ResultSet>& exact) {
  if (!got.ok()) return "n/a";
  if (!exact.ok()) return "?";
  std::vector<Row> a = got.value().rows;
  std::vector<Row> b = exact.value().rows;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  return a == b ? "exact" : "WRONG";
}

void PrintTable() {
  std::unique_ptr<Database> db = MakeInstance();
  // Coverage of the whole system: the router may serve a query class the
  // prover cannot (narrowing projection via first-order rewriting).
  cqa::HippoOptions hippo = KgOptions();
  hippo.route = RouteMode::kAuto;
  TextTable table({"query class", "plain", "core", "rewriting",
                   "hippo", "all-repairs"});
  for (const QueryCase& q : kQueryCases) {
    auto exact = db->ConsistentAnswersAllRepairs(q.sql);
    // Projection queries: exact all-repairs evaluation still works (it
    // evaluates the plain plan per repair), so it anchors the row.
    table.AddRow({q.cls, Cell(db->Query(q.sql), exact),
                  Cell(db->QueryOverCore(q.sql), exact),
                  Cell(db->ConsistentAnswersByRewriting(q.sql), exact),
                  Cell(db->ConsistentAnswers(q.sql, hippo), exact),
                  exact.ok() ? "exact" : "n/a"});
  }
  table.Print(
      "T2: query-class coverage per method (vs all-repairs ground truth)");

  // Constraint-class coverage: which methods accept which IC classes.
  TextTable ics({"constraint class", "rewriting", "hippo", "all-repairs"});
  ics.AddRow({"functional dependency", "yes", "yes", "yes"});
  ics.AddRow({"exclusion constraint", "yes", "yes", "yes"});
  ics.AddRow({"unary denial", "yes", "yes", "yes"});
  ics.AddRow({"binary denial (general)", "yes", "yes", "yes"});
  ics.AddRow({"k-ary denial (k>2)", "yes*", "yes", "yes"});
  std::printf("%s", ics.Render().c_str());
  std::printf(
      "  (*) residue construction generalizes to k-ary constraints in this\n"
      "      implementation; the published rewriting targets binary ICs.\n\n");
}

// Benchmark: the D query where only Hippo (polynomial) and all-repairs
// (exponential) are applicable — cost ratio at growing conflict counts.
void BM_HippoDifference(benchmark::State& state) {
  Database* db = DbCache::Get("two_rel", &BuildTwoRelationWorkload, 128,
                              static_cast<double>(state.range(0)) / 100.0);
  WarmHypergraph(db);
  for (auto _ : state) {
    auto rs = db->ConsistentAnswers(QuerySet::Difference(), KgOptions());
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_HippoDifference)->Arg(5)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_AllRepairsDifference(benchmark::State& state) {
  // Conflicts exist in BOTH relations, so repairs = 2^(pairs_p + pairs_q):
  // N=128 keeps the exponent benchmarkable while still showing the blowup.
  Database* db = DbCache::Get("two_rel", &BuildTwoRelationWorkload, 128,
                              static_cast<double>(state.range(0)) / 100.0);
  WarmHypergraph(db);
  for (auto _ : state) {
    auto rs = db->ConsistentAnswersAllRepairs(QuerySet::Difference(),
                                              1u << 22);
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_AllRepairsDifference)->Arg(5)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintTable())
