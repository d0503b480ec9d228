// Cross-checks the closed-form oracle (model.cc) against exact evaluation
// over every repair (Database::ConsistentAnswersAllRepairs) on small
// instances of each workload's generator. Runs at the start of every run,
// so no run trusts an oracle that was not checked against ground truth.
#include <string>
#include <vector>

#include "db/database.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Every query shape any workload issues, with constants inside [0, keys).
std::vector<Query> AllShapes(int64_t keys) {
  std::vector<Query> shapes;
  for (QueryKind kind :
       {QueryKind::kUnion, QueryKind::kDifference,
        QueryKind::kUnionOfDifferences, QueryKind::kIntersection,
        QueryKind::kStar, QueryKind::kJoin}) {
    shapes.push_back(Query{kind});
  }
  for (int64_t k = 0; k < keys; k += 3) {
    shapes.push_back(Query{QueryKind::kPoint, k});
  }
  shapes.push_back(Query{QueryKind::kRange, keys / 4, keys / 2});
  shapes.push_back(Query{QueryKind::kNarrow, 0, keys});
  shapes.push_back(Query{QueryKind::kNarrow, keys / 4, keys / 2});
  shapes.push_back(Query{QueryKind::kWindows, 0, keys / 3, keys / 2, keys});
  return shapes;
}

void Compare(hippo::Database* db, const Instance& model, int64_t keys,
             const std::string& label, Outcome* out) {
  for (const Query& query : AllShapes(keys)) {
    auto truth = db->ConsistentAnswersAllRepairs(query.Sql());
    if (!truth.ok()) {
      out->Wrong("selftest " + label + " " + query.Sql() +
                 ": all-repairs failed: " + truth.status().ToString());
      continue;
    }
    std::vector<IntRow> want;
    if (!ToIntRows(truth.value(), &want) ||
        want != CertainAnswers(model, query)) {
      out->Wrong("selftest " + label + " " + query.Sql() +
                 ": oracle differs from all-repairs");
    }
  }
}

}  // namespace

void SelfTest(const std::string& workload, uint64_t seed, Outcome* out) {
  constexpr int kInstances = 4;
  for (int i = 0; i < kInstances; ++i) {
    uint64_t s = seed * 1000 + static_cast<uint64_t>(i);
    std::string label = workload + "#" + std::to_string(i);
    // 12 keys, 2 conflict pairs per relation: 16 repairs. Dense: 3 blocks
    // of 4 plus one q pair: 128 repairs.
    const bool dense = workload == "rewrite-dense";
    const int64_t keys = dense ? 24 : 12;
    Instance model = dense ? DenseInstance(24, 4, 0.5, s)
                           : SparseInstance(12, 0.34, s);
    hippo::Database db;
    hippo::Status st = db.Execute(model.LoadSql());
    if (!st.ok()) {
      out->Wrong("selftest load: " + st.ToString());
      return;
    }
    Compare(&db, model, keys, label, out);
    if (workload != "churn-mixed") continue;
    // The churn model: conflicting inserts on consistent keys, then their
    // deletes, checked after every statement.
    Rng rng(s);
    std::vector<int64_t> churn =
        PickConsistentKeys(model.p, 0, keys, 2, &rng);
    std::vector<Mutation> steps;
    for (int64_t k : churn) steps.push_back(Mutation{true, k, 1000000});
    for (int64_t k : churn) steps.push_back(Mutation{false, k, 1000000});
    for (const Mutation& m : steps) {
      st = db.Execute(m.Sql());
      if (!st.ok()) {
        out->Wrong("selftest churn: " + st.ToString());
        return;
      }
      m.ApplyTo(&model.p);
      Compare(&db, model, keys, label + " after " + m.Sql(), out);
    }
  }
}

}  // namespace perfbench
