// F2 — running time vs conflict rate (demo §3, third claim).
//
// Fixed N = 32k per relation, conflict rate swept 0%..30%. The conflict
// hypergraph grows linearly with the rate; Hippo's prover works only on
// conflicting candidates, so its overhead over plain evaluation should grow
// gently and stay within a small factor; rewriting pays its anti-joins even
// at 0% conflicts.
#include "bench/bench_common.h"

#include "common/str_util.h"

namespace hippo::bench {
namespace {

constexpr size_t kN = 32768;

Database* Db(double rate) {
  Database* db =
      DbCache::Get("two_rel", &BuildTwoRelationWorkload, kN, rate);
  WarmHypergraph(db);
  return db;
}

const std::string kJoin = QuerySet::Join();

// state.range(0) = conflict rate in tenths of a percent.
void BM_PlainVsConflicts(benchmark::State& state) {
  Database* db = Db(static_cast<double>(state.range(0)) / 1000.0);
  for (auto _ : state) {
    auto rs = db->Query(kJoin);
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_PlainVsConflicts)
    ->Arg(0)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Arg(300)
    ->Unit(benchmark::kMillisecond);

void BM_HippoKGVsConflicts(benchmark::State& state) {
  Database* db = Db(static_cast<double>(state.range(0)) / 1000.0);
  for (auto _ : state) {
    auto rs = db->ConsistentAnswers(kJoin, KgOptions());
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_HippoKGVsConflicts)
    ->Arg(0)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Arg(300)
    ->Unit(benchmark::kMillisecond);

void BM_RewritingVsConflicts(benchmark::State& state) {
  Database* db = Db(static_cast<double>(state.range(0)) / 1000.0);
  for (auto _ : state) {
    auto rs = db->ConsistentAnswersByRewriting(kJoin);
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_RewritingVsConflicts)
    ->Arg(0)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Arg(300)
    ->Unit(benchmark::kMillisecond);

void PrintFigureTable() {
  TextTable table({"conflict rate", "edges", "candidates", "answers",
                   "plain", "hippo-kg", "rewriting"});
  for (double rate : {0.0, 0.01, 0.05, 0.10, 0.20, 0.30}) {
    Database* db = Db(rate);
    auto g = db->Hypergraph();
    HIPPO_CHECK(g.ok());
    cqa::HippoStats stats;
    double kg = TimeOnce([&] {
      HIPPO_CHECK(db->ConsistentAnswers(kJoin, KgOptions(), &stats).ok());
    });
    CheckProverWork(stats, /*conflicts=*/rate > 0);
    double plain = TimeOnce([&] { HIPPO_CHECK(db->Query(kJoin).ok()); });
    double rewr = TimeOnce(
        [&] { HIPPO_CHECK(db->ConsistentAnswersByRewriting(kJoin).ok()); });
    table.AddRow({StrFormat("%.0f%%", rate * 100),
                  std::to_string(g.value()->NumEdges()),
                  std::to_string(stats.candidates),
                  std::to_string(stats.answers), FormatSeconds(plain),
                  FormatSeconds(kg), FormatSeconds(rewr)});
  }
  table.Print(StrFormat(
      "F2: running time vs conflict rate (join query, N = %zu)", kN));
}

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTable())
