// F1 — running time vs database size (demo §3, third claim).
//
// Join query p ⋈ q under one FD per relation, 5% conflicts. Series:
//   plain      — ordinary evaluation (ignores inconsistency; lower bound)
//   hippo-kg   — Hippo with knowledge gathering (the full system)
//   hippo-base — Hippo issuing membership queries (small N only; the cost
//                the KG optimization removes)
//   rewriting  — the Arenas–Bertossi–Chomicki baseline
//   all-reps   — exact evaluation over every repair (separate exponential
//                table; repairs double with every conflict pair)
//
// Expected shape: plain, hippo-kg and rewriting scale near-linearly with
// hippo-kg within a small constant factor of plain; hippo-base degrades
// quadratically; all-repairs explodes exponentially at tiny sizes.
#include "bench/bench_common.h"

#include "common/str_util.h"

namespace hippo::bench {
namespace {

constexpr double kConflictRate = 0.05;

Database* Db(size_t n) {
  Database* db = DbCache::Get("two_rel", &BuildTwoRelationWorkload, n,
                              kConflictRate);
  WarmHypergraph(db);
  return db;
}

const std::string kJoin = QuerySet::Join();

void BM_Plain(benchmark::State& state) {
  Database* db = Db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto rs = db->Query(kJoin);
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_Plain)->RangeMultiplier(2)->Range(1024, 131072)
    ->Unit(benchmark::kMillisecond);

void BM_HippoKG(benchmark::State& state) {
  Database* db = Db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto rs = db->ConsistentAnswers(kJoin, KgOptions());
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_HippoKG)->RangeMultiplier(2)->Range(1024, 131072)
    ->Unit(benchmark::kMillisecond);

void BM_HippoBase(benchmark::State& state) {
  Database* db = Db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto rs = db->ConsistentAnswers(kJoin, BaseOptions());
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_HippoBase)->RangeMultiplier(2)->Range(1024, 4096)
    ->Unit(benchmark::kMillisecond);

void BM_Rewriting(benchmark::State& state) {
  Database* db = Db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto rs = db->ConsistentAnswersByRewriting(kJoin);
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_Rewriting)->RangeMultiplier(2)->Range(1024, 131072)
    ->Unit(benchmark::kMillisecond);

void PrintFigureTable() {
  TextTable table({"N per relation", "plain", "hippo-kg", "hippo-base",
                   "rewriting", "kg/plain"});
  for (size_t n : {1024u, 4096u, 16384u, 65536u, 131072u}) {
    Database* db = Db(n);
    double plain = TimeOnce([&] { HIPPO_CHECK(db->Query(kJoin).ok()); });
    cqa::HippoStats kg_stats;
    double kg = TimeOnce([&] {
      HIPPO_CHECK(db->ConsistentAnswers(kJoin, KgOptions(), &kg_stats).ok());
    });
    CheckProverWork(kg_stats, /*conflicts=*/true);
    double rewr = TimeOnce(
        [&] { HIPPO_CHECK(db->ConsistentAnswersByRewriting(kJoin).ok()); });
    std::string base = "-";
    if (n <= 4096) {
      cqa::HippoStats base_stats;
      base = FormatSeconds(TimeOnce([&] {
        HIPPO_CHECK(
            db->ConsistentAnswers(kJoin, BaseOptions(), &base_stats).ok());
      }));
      CheckProverWork(base_stats, /*conflicts=*/true);
    }
    table.AddRow({std::to_string(n), FormatSeconds(plain), FormatSeconds(kg),
                  base, FormatSeconds(rewr),
                  StrFormat("%.1fx", kg / plain)});
  }
  table.Print("F1: running time vs database size (join query, 5% conflicts)");

  // All-repairs blows up exponentially: one row per conflict-pair count.
  TextTable blowup({"N", "conflict pairs", "repairs", "all-repairs time",
                    "hippo-kg time"});
  // Conflicts exist in both relations: repairs = 2^(pairs_p + pairs_q),
  // so even a few hundred tuples at 5% already yield thousands of repairs.
  for (size_t n : {64u, 128u, 256u}) {
    Database* db = Db(n);
    auto repairs = db->CountRepairs(1u << 22);
    std::string reps = repairs.ok() ? std::to_string(repairs.value()) : ">4M";
    double all = TimeOnce([&] {
      HIPPO_CHECK(db->ConsistentAnswersAllRepairs(kJoin, 1u << 22).ok());
    });
    cqa::HippoStats kg_stats;
    double kg = TimeOnce([&] {
      HIPPO_CHECK(db->ConsistentAnswers(kJoin, KgOptions(), &kg_stats).ok());
    });
    CheckProverWork(kg_stats, /*conflicts=*/true);
    blowup.AddRow({std::to_string(n),
                   std::to_string(static_cast<size_t>(n * kConflictRate / 2)),
                   reps, FormatSeconds(all), FormatSeconds(kg)});
  }
  blowup.Print("F1b: repair materialization explodes exponentially");
}

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTable())
