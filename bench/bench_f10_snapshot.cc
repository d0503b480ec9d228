// F10 — copy-on-write snapshot publication (the tentpole of the structural
// sharing refactor). Two tables:
//
//   * F10a publication cost vs database size: T tables with an FD each; a
//     1-table write followed by Snapshot::Capture (the COW commit path:
//     the write clones the touched table and dirty hypergraph partitions,
//     capture shares the rest) against the deep-clone baseline
//     (Catalog::Clone + ConflictHypergraph::DeepCopy — what publication
//     cost before this refactor). COW cost tracks the touched table;
//     deep cost tracks the whole database, so the speedup grows with T.
//     The marginal-bytes column is the memory the new epoch allocates
//     beyond what it shares with its predecessor.
//   * F10b publication cost vs write-batch size on a fixed 8-table
//     database: batches spread round-robin over the tables, so bigger
//     batches dirty more tables and the published bytes grow with the
//     touched set, not with the database.
//   * F10c per-statement cost of the writes a commit applies, vs table
//     size: a full-row DELETE (probes the table's row index), a key-only
//     DELETE (scans every live row) and an INSERT. The probe/scan column
//     (full-row over key-only DELETE) is gated absolutely in CI: a probe
//     that degenerates into a scan shows up as a ratio near 1 on any host.
//
// Correctness of shared snapshots (answers, edge ids, immutability) is
// proved by tests/snapshot_cow_test.cc, and of the DML access paths by
// tests/dml_test.cc; this binary only times them.
#include "bench/bench_common.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/str_util.h"
#include "service/snapshot.h"

namespace hippo::bench {
namespace {

using service::Snapshot;
using service::SnapshotPtr;

size_t RowsPerTable() { return SmokeMode() ? 256 : 8192; }
constexpr size_t kConflictEvery = 64;

/// T tables (a INTEGER, b INTEGER) with an FD a -> b and a conflict pair
/// every kConflictEvery rows. Incremental maintenance on, graph warm.
std::unique_ptr<Database> BuildManyTables(size_t tables, size_t rows) {
  auto db = std::make_unique<Database>();
  for (size_t t = 0; t < tables; ++t) {
    Status st = db->Execute(StrFormat(
        "CREATE TABLE t%zu (a INTEGER, b INTEGER);"
        "CREATE CONSTRAINT fd%zu FD ON t%zu (a -> b)",
        t, t, t));
    HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  for (size_t t = 0; t < tables; ++t) {
    std::string name = StrFormat("t%zu", t);
    for (size_t i = 0; i < rows; ++i) {
      Status st = db->InsertRow(
          name, Row{Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i))});
      HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
      if (i % kConflictEvery == 0) {
        st = db->InsertRow(
            name, Row{Value::Int(static_cast<int64_t>(i)),
                      Value::Int(static_cast<int64_t>(i + 1))});
        HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
      }
    }
  }
  Status st = db->EnableIncrementalMaintenance();
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
  return db;
}

Database* CachedDb(size_t tables) {
  static std::map<size_t, std::unique_ptr<Database>> cache;
  auto it = cache.find(tables);
  if (it == cache.end()) {
    it = cache.emplace(tables, BuildManyTables(tables, RowsPerTable())).first;
  }
  return it->second.get();
}

SnapshotPtr MustCapture(Database* db, uint64_t epoch) {
  auto snap = Snapshot::Capture(db, epoch);
  HIPPO_CHECK_MSG(snap.ok(), snap.status().ToString().c_str());
  return snap.value();
}

/// One COW commit: a conflicting single-row insert into t0 (clones the
/// touched table and dirty graph partitions) followed by capture.
double CowCommitSeconds(Database* db, uint64_t* epoch, SnapshotPtr* prev,
                        size_t* marginal_bytes) {
  uint64_t e = (*epoch)++;
  std::string table = "t0";
  Row row{Value::Int(static_cast<int64_t>(e % RowsPerTable())),
          Value::Int(static_cast<int64_t>(1000000 + e))};
  SnapshotPtr snap;
  double secs = TimeOnce([&] {
    Status st = db->InsertRow(table, row);
    HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
    snap = MustCapture(db, e);
  });
  if (marginal_bytes != nullptr) {
    std::unordered_set<const void*> seen;
    if (*prev != nullptr) (*prev)->CollectStorageIdentity(&seen);
    *marginal_bytes = snap->AccumulateApproxBytes(&seen);
  }
  *prev = std::move(snap);
  return secs;
}

/// The pre-refactor publication: deep-copy the whole instance + graph.
double DeepPublishSeconds(Database* db) {
  const ConflictHypergraph* graph = nullptr;
  {
    auto g = db->Hypergraph();
    HIPPO_CHECK_MSG(g.ok(), g.status().ToString().c_str());
    graph = g.value();
  }
  return TimeOnce([&] {
    Catalog deep_catalog = db->catalog().Clone();
    ConflictHypergraph deep_graph = graph->DeepCopy();
    benchmark::DoNotOptimize(deep_catalog.NumTables());
    benchmark::DoNotOptimize(deep_graph.NumEdges());
  });
}

double MinOf(const std::function<double()>& fn, int reps) {
  double best = fn();
  for (int i = 1; i < reps; ++i) best = std::min(best, fn());
  return best;
}

void PrintPublicationVsTables() {
  TextTable table({"tables", "total rows", "deep publish", "cow publish",
                   "speedup", "marginal bytes", "full bytes"});
  for (size_t tables : {1u, 2u, 4u, 8u, 16u}) {
    Database* db = CachedDb(tables);
    uint64_t epoch = 1;
    SnapshotPtr prev = MustCapture(db, 0);  // steady state: all shared
    size_t marginal = 0;
    double cow = MinOf(
        [&] { return CowCommitSeconds(db, &epoch, &prev, &marginal); }, 5);
    double deep = MinOf([&] { return DeepPublishSeconds(db); }, 3);
    table.AddRow({std::to_string(tables),
                  std::to_string(db->catalog().TotalRows()),
                  FormatSeconds(deep), FormatSeconds(cow),
                  StrFormat("%.1fx", deep / cow), FormatBytes(marginal),
                  FormatBytes(prev->ApproxBytes())});
  }
  table.Print(StrFormat(
      "F10a: publication cost of a 1-table write vs table count, "
      "%zu rows/table (deep = Catalog::Clone + hypergraph DeepCopy)",
      RowsPerTable()));
}

void PrintPublicationVsBatch() {
  constexpr size_t kTables = 8;
  TextTable table({"batch rows", "tables touched", "cow publish",
                   "marginal bytes"});
  Database* db = CachedDb(kTables);
  uint64_t next_row = 2000000;
  for (size_t batch : {size_t{1}, size_t{16}, size_t{256}, size_t{4096}}) {
    uint64_t epoch = 1;
    SnapshotPtr prev = MustCapture(db, 0);
    size_t touched = std::min(batch, kTables);
    SnapshotPtr snap;
    double secs = TimeOnce([&] {
      // Round-robin: batch b dirties min(b, kTables) tables.
      for (size_t i = 0; i < batch; ++i) {
        Status st = db->InsertRow(
            StrFormat("t%zu", i % kTables),
            Row{Value::Int(static_cast<int64_t>(next_row++)),
                Value::Int(0)});
        HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
      }
      snap = MustCapture(db, epoch++);
    });
    std::unordered_set<const void*> seen;
    prev->CollectStorageIdentity(&seen);
    size_t marginal = snap->AccumulateApproxBytes(&seen);
    table.AddRow({std::to_string(batch), std::to_string(touched),
                  FormatSeconds(secs), FormatBytes(marginal)});
  }
  table.Print(StrFormat(
      "F10b: publication cost vs write-batch size, %zu tables x %zu rows",
      kTables, RowsPerTable()));
}

constexpr size_t kDmlReps = 64;

/// F10c's instance: p(a, b) with an FD a -> b and the rows (i, i), under
/// incremental maintenance, as on the commit path.
std::unique_ptr<Database> BuildDmlTable(size_t rows) {
  auto db = std::make_unique<Database>();
  Status st = db->Execute(
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd FD ON p (a -> b)");
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
  for (size_t i = 0; i < rows; ++i) {
    st = db->InsertRow("p", Row{Value::Int(static_cast<int64_t>(i)),
                                Value::Int(static_cast<int64_t>(i))});
    HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  st = db->EnableIncrementalMaintenance();
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
  return db;
}

void MustExecute(Database* db, const std::string& sql) {
  Status st = db->Execute(sql);
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
}

/// Median wall time of the statement `sql(r)` over r < kDmlReps, each
/// followed by the untimed `undo(r)`, which restores the instance.
double MedianStatementSeconds(Database* db,
                              const std::function<std::string(size_t)>& sql,
                              const std::function<std::string(size_t)>& undo) {
  std::vector<double> times;
  for (size_t r = 0; r < kDmlReps; ++r) {
    std::string stmt = sql(r);
    times.push_back(TimeOnce([&] { MustExecute(db, stmt); }));
    MustExecute(db, undo(r));
  }
  std::nth_element(times.begin(), times.begin() + kDmlReps / 2, times.end());
  return times[kDmlReps / 2];
}

void PrintDmlAccessPaths() {
  TextTable table({"rows", "full-row delete", "key-only delete", "insert",
                   "probe/scan"});
  const std::vector<size_t> sizes =
      SmokeMode() ? std::vector<size_t>{1024}
                  : std::vector<size_t>{1024, 8192, 65536};
  for (size_t rows : sizes) {
    std::unique_ptr<Database> db = BuildDmlTable(rows);
    // Live keys spread over the table; new keys above it.
    auto key = [rows](size_t r) {
      return static_cast<long long>((r * 7919 + 17) % rows);
    };
    auto reinsert = [&](size_t r) {
      return StrFormat("INSERT INTO p VALUES (%lld, %lld)", key(r), key(r));
    };
    const DmlStats start = db->dml_stats();
    double probe = MedianStatementSeconds(
        db.get(),
        [&](size_t r) {
          return StrFormat("DELETE FROM p WHERE a = %lld AND b = %lld",
                           key(r), key(r));
        },
        reinsert);
    const DmlStats probed = db->dml_stats();
    double scan = MedianStatementSeconds(
        db.get(),
        [&](size_t r) {
          return StrFormat("DELETE FROM p WHERE a = %lld", key(r));
        },
        reinsert);
    const DmlStats scanned = db->dml_stats();
    // The work each column claims: one probe and one row per full-row
    // DELETE, every live row per key-only DELETE.
    HIPPO_CHECK(probed.index_probes - start.index_probes == kDmlReps);
    HIPPO_CHECK(probed.rows_examined - start.rows_examined == kDmlReps);
    HIPPO_CHECK(scanned.index_probes == probed.index_probes);
    HIPPO_CHECK(scanned.rows_examined - probed.rows_examined ==
                kDmlReps * rows);
    double insert = MedianStatementSeconds(
        db.get(),
        [&](size_t r) {
          long long k = static_cast<long long>(rows + r);
          return StrFormat("INSERT INTO p VALUES (%lld, %lld)", k, k);
        },
        [&](size_t r) {
          long long k = static_cast<long long>(rows + r);
          return StrFormat("DELETE FROM p WHERE a = %lld AND b = %lld", k, k);
        });
    table.AddRow({std::to_string(rows), FormatSeconds(probe),
                  FormatSeconds(scan), FormatSeconds(insert),
                  StrFormat("%.3f", probe / scan)});
  }
  table.Print(StrFormat(
      "F10c: per-statement DML cost vs table size, FD table under "
      "incremental maintenance (median of %zu statements; probe/scan = "
      "full-row over key-only DELETE)",
      kDmlReps));
}

void PrintFigureTables() {
  PrintPublicationVsTables();
  PrintPublicationVsBatch();
  PrintDmlAccessPaths();
}

void BM_CowPublish(benchmark::State& state) {
  Database* db = CachedDb(static_cast<size_t>(state.range(0)));
  uint64_t epoch = 1;
  SnapshotPtr prev = MustCapture(db, 0);
  for (auto _ : state) {
    CowCommitSeconds(db, &epoch, &prev, nullptr);
  }
}
BENCHMARK(BM_CowPublish)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_DeepClonePublish(benchmark::State& state) {
  Database* db = CachedDb(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    DeepPublishSeconds(db);
  }
}
BENCHMARK(BM_DeepClonePublish)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTables())
