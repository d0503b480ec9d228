// F4 — the Prover-side optimizations (demo §2): answering membership
// checks "without executing any queries on the database" (knowledge
// gathering) and pre-deciding candidates from a consistent-answer subset
// (conflict-free filtering).
//
// Four configurations over the same join workload:
//   base            — membership via engine queries, no filtering
//   base+filter     — engine queries, conflict-free shortcut
//   kg              — in-memory gathering, no filtering
//   kg+filter       — the full system
//
// Reported: wall time and number of membership checks that hit the
// database (base modes) vs the gathered structures (kg modes).
// Expected shape: base degrades quadratically (each check scans the
// relation); kg+filter ≈ kg ≪ base; filtering slashes prover invocations.
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

void RunMode(benchmark::State& state, const cqa::HippoOptions& options) {
  Database* db = Db(static_cast<size_t>(state.range(0)));
  cqa::HippoStats stats;
  for (auto _ : state) {
    stats = cqa::HippoStats();
    auto rs = db->ConsistentAnswers(kJoin, options, &stats);
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
  state.counters["membership_checks"] =
      static_cast<double>(stats.membership_checks);
  state.counters["prover_invocations"] =
      static_cast<double>(stats.prover_invocations);
}

void BM_Base(benchmark::State& state) { RunMode(state, BaseOptions(false)); }
void BM_BaseFilter(benchmark::State& state) {
  RunMode(state, BaseOptions(true));
}
void BM_Kg(benchmark::State& state) { RunMode(state, KgOptions(false)); }
void BM_KgFilter(benchmark::State& state) { RunMode(state, KgOptions(true)); }

BENCHMARK(BM_Base)->RangeMultiplier(2)->Range(512, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BaseFilter)->RangeMultiplier(2)->Range(512, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Kg)->RangeMultiplier(2)->Range(512, 32768)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KgFilter)->RangeMultiplier(2)->Range(512, 32768)
    ->Unit(benchmark::kMillisecond);

void PrintFigureTable() {
  TextTable table({"N", "mode", "time", "membership checks",
                   "prover invocations", "filtered"});
  struct Mode {
    const char* name;
    cqa::HippoOptions options;
    size_t max_n;
  };
  const Mode modes[] = {
      {"base", BaseOptions(false), 4096},
      {"base+filter", BaseOptions(true), 4096},
      {"kg", KgOptions(false), 32768},
      {"kg+filter", KgOptions(true), 32768},
  };
  for (size_t n : {1024u, 4096u, 32768u}) {
    for (const Mode& m : modes) {
      if (n > m.max_n) continue;
      Database* db = Db(n);
      cqa::HippoStats stats;
      double t = TimeOnce([&] {
        HIPPO_CHECK(db->ConsistentAnswers(kJoin, m.options, &stats).ok());
      });
      CheckProverWork(stats, /*conflicts=*/true);
      table.AddRow({std::to_string(n), m.name, FormatSeconds(t),
                    std::to_string(stats.membership_checks),
                    std::to_string(stats.prover_invocations),
                    std::to_string(stats.filtered_shortcuts)});
    }
  }
  table.Print(
      "F4: membership-check optimizations (join query, 5% conflicts)");
}

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTable())
