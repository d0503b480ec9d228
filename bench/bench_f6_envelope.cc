// F6 — envelope quality: how many candidates does Enveloping hand to the
// Prover, and how many survive? (demo §2: "using an expression selecting a
// subset of the set of consistent query answers, we can significantly
// reduce the number of tuples that have to be processed by Prover").
//
// For monotone queries the envelope equals the plain answer set; for
// difference-heavy queries it is strictly larger (it must contain answers
// that only appear in some repair). Filtering then removes the
// conflict-free candidates from the Prover's workload.
#include "bench/bench_common.h"

#include "common/str_util.h"

namespace hippo::bench {
namespace {

constexpr size_t kN = 32768;

Database* Db(double rate) {
  Database* db = DbCache::Get("two_rel", &BuildTwoRelationWorkload, kN, rate);
  WarmHypergraph(db);
  return db;
}

struct NamedQuery {
  const char* name;
  std::string sql;
};

std::vector<NamedQuery> Queries() {
  return {
      {"S: selection", QuerySet::Selection()},
      {"J: join", QuerySet::Join()},
      {"U: union", QuerySet::Union()},
      {"D: difference", QuerySet::Difference()},
      {"UD: symmetric diff", QuerySet::UnionOfDifferences()},
  };
}

void BM_EnvelopeAndProve(benchmark::State& state) {
  Database* db = Db(0.05);
  NamedQuery q = Queries()[static_cast<size_t>(state.range(0))];
  cqa::HippoStats stats;
  for (auto _ : state) {
    stats = cqa::HippoStats();
    auto rs = db->ConsistentAnswers(q.sql, KgOptions(), &stats);
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
  state.SetLabel(q.name);
  state.counters["candidates"] = static_cast<double>(stats.candidates);
  state.counters["answers"] = static_cast<double>(stats.answers);
}
BENCHMARK(BM_EnvelopeAndProve)->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void PrintFigureTable() {
  TextTable table({"query", "plain answers", "candidates (envelope)",
                   "consistent answers", "proved by filter",
                   "envelope time", "prove time"});
  Database* db = Db(0.05);
  for (const NamedQuery& q : Queries()) {
    auto plain = db->Query(q.sql);
    HIPPO_CHECK(plain.ok());
    cqa::HippoStats stats;
    auto rs = db->ConsistentAnswers(q.sql, KgOptions(), &stats);
    HIPPO_CHECK(rs.ok());
    CheckProverWork(stats, /*conflicts=*/true);
    table.AddRow({q.name, std::to_string(plain.value().NumRows()),
                  std::to_string(stats.candidates),
                  std::to_string(stats.answers),
                  std::to_string(stats.filtered_shortcuts),
                  FormatSeconds(stats.envelope_seconds),
                  FormatSeconds(stats.prove_seconds)});
  }
  table.Print(StrFormat(
      "F6: envelope size vs answer set (N = %zu, 5%% conflicts)", kN));

  // Conflict-rate sensitivity of the candidate/answer gap for D queries.
  TextTable gap({"conflict rate", "candidates", "answers",
                 "candidates needing prover"});
  for (double rate : {0.01, 0.05, 0.10, 0.20}) {
    Database* dbr = Db(rate);
    cqa::HippoStats stats;
    HIPPO_CHECK(dbr->ConsistentAnswers(QuerySet::Difference(), KgOptions(),
                                       &stats)
                    .ok());
    CheckProverWork(stats, /*conflicts=*/true);
    gap.AddRow({StrFormat("%.0f%%", rate * 100),
                std::to_string(stats.candidates),
                std::to_string(stats.answers),
                std::to_string(stats.prover_invocations)});
  }
  gap.Print("F6b: difference-query envelope vs conflict rate");
}

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTable())
