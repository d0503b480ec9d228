// DELETE / UPDATE statement semantics: tombstones, RowId stability,
// resurrection, and interaction with constraint detection and CQA; and the
// DML access path — the row-index probe of a full-row WHERE — pinned by its
// counts and checked against the scan oracle in tests/naive_oracle.h.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "db/database.h"
#include "detect/detector.h"
#include "service/query_service.h"
#include "storage/table.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE emp (name VARCHAR, dept VARCHAR, salary INTEGER);"
        "INSERT INTO emp VALUES ('ann', 'sales', 10), ('bob', 'eng', 20), "
        "('cat', 'eng', 30), ('dan', 'hr', 40)"));
  }

  size_t Count(const std::string& q = "SELECT * FROM emp") {
    auto rs = db_.Query(q);
    EXPECT_OK(rs.status());
    return rs.value().NumRows();
  }

  Database db_;
};

TEST_F(DmlTest, DeleteAll) {
  ASSERT_OK(db_.Execute("DELETE FROM emp"));
  EXPECT_EQ(Count(), 0u);
}

TEST_F(DmlTest, DeleteWithPredicate) {
  ASSERT_OK(db_.Execute("DELETE FROM emp WHERE dept = 'eng'"));
  EXPECT_EQ(Count(), 2u);
  EXPECT_EQ(Count("SELECT * FROM emp WHERE dept = 'eng'"), 0u);
}

TEST_F(DmlTest, DeleteWithQualifiedColumn) {
  ASSERT_OK(db_.Execute("DELETE FROM emp WHERE emp.salary > 25"));
  EXPECT_EQ(Count(), 2u);
}

TEST_F(DmlTest, DeleteNoMatchIsNoop) {
  ASSERT_OK(db_.Execute("DELETE FROM emp WHERE salary > 1000"));
  EXPECT_EQ(Count(), 4u);
}

TEST_F(DmlTest, DeleteUnknownTableFails) {
  EXPECT_FALSE(db_.Execute("DELETE FROM nope").ok());
}

TEST_F(DmlTest, DeleteNonBooleanWhereFails) {
  EXPECT_FALSE(db_.Execute("DELETE FROM emp WHERE salary").ok());
}

TEST_F(DmlTest, UpdateSingleColumn) {
  ASSERT_OK(db_.Execute("UPDATE emp SET salary = 99 WHERE name = 'ann'"));
  auto rs = db_.Query("SELECT salary FROM emp WHERE name = 'ann'");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs.value().NumRows(), 1u);
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(99));
  EXPECT_EQ(Count(), 4u);
}

TEST_F(DmlTest, UpdateSeesPreUpdateImage) {
  // salary = salary + 1 must read the old value for every row, not the
  // value written by a previous assignment of the same statement.
  ASSERT_OK(db_.Execute("UPDATE emp SET salary = salary + 1"));
  auto rs = db_.Query("SELECT salary FROM emp ORDER BY salary");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs.value().NumRows(), 4u);
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(11));
  EXPECT_EQ(rs.value().rows[3][0], Value::Int(41));
}

TEST_F(DmlTest, UpdateMultipleAssignmentsUsePreImage) {
  ASSERT_OK(db_.Execute(
      "UPDATE emp SET salary = salary * 2, dept = 'all' WHERE name = 'bob'"));
  auto rs = db_.Query("SELECT dept, salary FROM emp WHERE name = 'bob'");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs.value().NumRows(), 1u);
  EXPECT_EQ(rs.value().rows[0][0], Value::String("all"));
  EXPECT_EQ(rs.value().rows[0][1], Value::Int(40));
}

TEST_F(DmlTest, UpdateOntoExistingRowMerges) {
  // Set semantics: making bob's row identical to cat's leaves one copy.
  ASSERT_OK(db_.Execute(
      "UPDATE emp SET name = 'cat', salary = 30 WHERE name = 'bob'"));
  EXPECT_EQ(Count(), 3u);
}

TEST_F(DmlTest, UpdateUnknownColumnFails) {
  EXPECT_FALSE(db_.Execute("UPDATE emp SET nope = 1").ok());
}

TEST_F(DmlTest, ReinsertAfterDeleteResurrectsRowId) {
  auto table = db_.catalog().GetTable("emp");
  ASSERT_OK(table.status());
  Row bob{Value::String("bob"), Value::String("eng"), Value::Int(20)};
  std::optional<RowId> before = table.value()->Find(bob);
  ASSERT_TRUE(before.has_value());
  ASSERT_OK(db_.Execute("DELETE FROM emp WHERE name = 'bob'"));
  EXPECT_FALSE(table.value()->Find(bob).has_value());
  ASSERT_OK(db_.Execute("INSERT INTO emp VALUES ('bob', 'eng', 20)"));
  std::optional<RowId> after = table.value()->Find(bob);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(before->row, after->row);
  EXPECT_EQ(Count(), 4u);
}

TEST_F(DmlTest, TombstonesInvisibleEverywhere) {
  ASSERT_OK(db_.Execute(
      "CREATE CONSTRAINT fd FD ON emp (name -> salary);"
      "INSERT INTO emp VALUES ('ann', 'ops', 11)"));  // conflicts with ann/10
  auto g1 = db_.Hypergraph();
  ASSERT_OK(g1.status());
  EXPECT_EQ(g1.value()->NumEdges(), 1u);
  // Deleting one side of the conflict clears it from a fresh detection.
  ASSERT_OK(db_.Execute("DELETE FROM emp WHERE dept = 'ops'"));
  auto g2 = db_.Hypergraph();
  ASSERT_OK(g2.status());
  EXPECT_EQ(g2.value()->NumEdges(), 0u);
  auto consistent = db_.IsConsistent();
  ASSERT_OK(consistent.status());
  EXPECT_TRUE(consistent.value());
}

TEST_F(DmlTest, DeleteRowProgrammatic) {
  ASSERT_OK(db_.DeleteRow(
      "emp", Row{Value::String("ann"), Value::String("sales"),
                 Value::Int(10)}));
  EXPECT_EQ(Count(), 3u);
  // Values are coerced like Insert: a double 40.0 matches INTEGER 40.
  ASSERT_OK(db_.DeleteRow(
      "emp", Row{Value::String("dan"), Value::String("hr"),
                 Value::Double(40.0)}));
  EXPECT_EQ(Count(), 2u);
  // Absent row: no-op.
  ASSERT_OK(db_.DeleteRow(
      "emp", Row{Value::String("zed"), Value::String("hr"),
                 Value::Int(1)}));
  EXPECT_EQ(Count(), 2u);
}

TEST_F(DmlTest, AggregatesSkipTombstones) {
  ASSERT_OK(db_.Execute("CREATE CONSTRAINT fd FD ON emp (name -> salary)"));
  ASSERT_OK(db_.Execute("DELETE FROM emp WHERE salary >= 30"));
  auto range = db_.RangeConsistentAggregate("emp", cqa::AggFn::kSum, "salary");
  ASSERT_OK(range.status());
  EXPECT_EQ(range.value().glb, Value::Int(30));
  EXPECT_EQ(range.value().lub, Value::Int(30));
}

TEST_F(DmlTest, CqaAfterUpdateMatchesAllRepairs) {
  ASSERT_OK(db_.Execute("CREATE CONSTRAINT fd FD ON emp (name -> salary)"));
  ASSERT_OK(db_.Execute(
      "INSERT INTO emp VALUES ('ann', 'ops', 11), ('bob', 'ops', 21)"));
  ASSERT_OK(db_.Execute("UPDATE emp SET salary = 20 WHERE name = 'bob'"));
  auto hippo = db_.ConsistentAnswers("SELECT * FROM emp");
  auto exact = db_.ConsistentAnswersAllRepairs("SELECT * FROM emp");
  ASSERT_OK(hippo.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(hippo.value()), SortedRows(exact.value()));
  // bob/eng is now consistently salary=20 (merged with the existing row).
  EXPECT_TRUE(hippo.value().Contains(
      Row{Value::String("bob"), Value::String("eng"), Value::Int(20)}));
}

// --- Table-level tombstone unit tests --------------------------------------

TEST(TableTombstoneTest, DeleteAndCounts) {
  Schema schema;
  schema.AddColumn(Column("a", TypeId::kInt));
  Table t(7, "t", schema);
  auto r0 = t.Insert(Row{Value::Int(1)});
  auto r1 = t.Insert(Row{Value::Int(2)});
  ASSERT_OK(r0.status());
  ASSERT_OK(r1.status());
  EXPECT_EQ(t.NumLiveRows(), 2u);
  EXPECT_EQ(t.NumRows(), 2u);

  EXPECT_TRUE(t.Delete(r0.value().first.row));
  EXPECT_EQ(t.NumLiveRows(), 1u);
  EXPECT_EQ(t.NumRows(), 2u);  // slot retained
  EXPECT_FALSE(t.IsLive(r0.value().first.row));
  EXPECT_TRUE(t.IsLive(r1.value().first.row));

  // Double delete and out-of-range are no-ops.
  EXPECT_FALSE(t.Delete(r0.value().first.row));
  EXPECT_FALSE(t.Delete(999));
  EXPECT_EQ(t.NumLiveRows(), 1u);
}

TEST(TableTombstoneTest, ResurrectionKeepsRowIdAndReportsChange) {
  Schema schema;
  schema.AddColumn(Column("a", TypeId::kInt));
  Table t(7, "t", schema);
  auto first = t.Insert(Row{Value::Int(5)});
  ASSERT_OK(first.status());
  EXPECT_TRUE(first.value().second);

  // Duplicate insert of a live row: no change.
  auto dup = t.Insert(Row{Value::Int(5)});
  ASSERT_OK(dup.status());
  EXPECT_FALSE(dup.value().second);

  ASSERT_TRUE(t.Delete(first.value().first.row));
  auto again = t.Insert(Row{Value::Int(5)});
  ASSERT_OK(again.status());
  EXPECT_TRUE(again.value().second);  // the instance changed
  EXPECT_EQ(again.value().first.row, first.value().first.row);
  EXPECT_EQ(t.NumRows(), 1u);  // no new slot
}

// --- DML access paths ------------------------------------------------------

class DmlAccessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute("CREATE TABLE t (a INTEGER, b INTEGER)"));
    for (int i = 0; i < 1000; ++i) {
      ASSERT_OK(db_.InsertRow("t", Row{Value::Int(i), Value::Int(2 * i)}));
    }
  }

  size_t Live() { return db_.catalog().GetTable("t").value()->NumLiveRows(); }

  Database db_;
};

TEST_F(DmlAccessTest, FullRowDeleteExaminesOneRowAndKeyDeleteScans) {
  const DmlStats start = db_.dml_stats();
  ASSERT_OK(db_.Execute("DELETE FROM t WHERE b = 1000 AND a = 500"));
  EXPECT_EQ(Live(), 999u);
  EXPECT_EQ(db_.dml_stats().statements, start.statements + 1);
  EXPECT_EQ(db_.dml_stats().index_probes, start.index_probes + 1);
  EXPECT_EQ(db_.dml_stats().rows_examined, start.rows_examined + 1);

  const DmlStats probed = db_.dml_stats();
  ASSERT_OK(db_.Execute("DELETE FROM t WHERE a = 3"));
  EXPECT_EQ(Live(), 998u);
  EXPECT_EQ(db_.dml_stats().statements, probed.statements + 1);
  EXPECT_EQ(db_.dml_stats().index_probes, probed.index_probes);
  EXPECT_EQ(db_.dml_stats().rows_examined, probed.rows_examined + 999);
}

TEST_F(DmlAccessTest, FullRowUpdateProbesAndAMissExaminesNothing) {
  const DmlStats start = db_.dml_stats();
  ASSERT_OK(db_.Execute("UPDATE t SET b = 7 WHERE a = 9 AND b = 18"));
  EXPECT_EQ(db_.dml_stats().index_probes, start.index_probes + 1);
  EXPECT_EQ(db_.dml_stats().rows_examined, start.rows_examined + 1);
  auto rs = db_.Query("SELECT b FROM t WHERE a = 9");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs.value().NumRows(), 1u);
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(7));

  const DmlStats updated = db_.dml_stats();
  ASSERT_OK(db_.Execute("DELETE FROM t WHERE a = 9 AND b = 18"));  // gone
  EXPECT_EQ(db_.dml_stats().index_probes, updated.index_probes + 1);
  EXPECT_EQ(db_.dml_stats().rows_examined, updated.rows_examined);
  EXPECT_EQ(Live(), 1000u);
}

TEST_F(DmlAccessTest, DeleteRowProbesAndMissesOnUnstorableValues) {
  const DmlStats start = db_.dml_stats();
  // Coerced like Insert: 8.0 names the stored Int(8).
  ASSERT_OK(db_.DeleteRow("t", Row{Value::Int(4), Value::Double(8.0)}));
  EXPECT_EQ(Live(), 999u);
  EXPECT_EQ(db_.dml_stats().index_probes, start.index_probes + 1);
  EXPECT_EQ(db_.dml_stats().rows_examined, start.rows_examined + 1);
  // Uncoercible and NaN values name no stored row: misses, not errors.
  ASSERT_OK(db_.DeleteRow("t", Row{Value::Int(5), Value::Double(10.5)}));
  ASSERT_OK(db_.DeleteRow("t", Row{Value::Int(5), Value::String("ten")}));
  ASSERT_OK(
      db_.DeleteRow("t", Row{Value::Int(5), Value::Double(std::nan(""))}));
  EXPECT_EQ(Live(), 999u);
  EXPECT_EQ(db_.dml_stats().statements, start.statements + 4);
  EXPECT_EQ(db_.dml_stats().index_probes, start.index_probes + 1);
  EXPECT_FALSE(db_.DeleteRow("t", Row{Value::Int(5)}).ok());  // arity
}

TEST(DmlAccessServiceTest, CommitsRecordTheCountsInTheServiceRegistry) {
  service::QueryService svc;
  std::string load = "CREATE TABLE t (a INTEGER, b INTEGER);";
  for (int i = 0; i < 100; ++i) {
    load += StrFormat("INSERT INTO t VALUES (%d, %d);", i, i);
  }
  ASSERT_OK(svc.Commit(load));
  auto has_line = [&](const std::string& line) {
    return svc.DumpMetrics().find(line + "\n") != std::string::npos;
  };
  ASSERT_OK(svc.Commit("DELETE FROM t WHERE a = 5 AND b = 5"));
  EXPECT_TRUE(has_line("hippo_dml_index_probes_total 1")) << svc.DumpMetrics();
  EXPECT_TRUE(has_line("hippo_dml_rows_examined_total 1"));
  ASSERT_OK(svc.Commit("DELETE FROM t WHERE a = 3"));
  EXPECT_TRUE(has_line("hippo_dml_index_probes_total 1"));
  EXPECT_TRUE(has_line("hippo_dml_rows_examined_total 100"));  // 1 + 99
  // A DDL script runs as a re-detect round on a fork; its DML counts too.
  ASSERT_OK(svc.Commit(
      "CREATE TABLE u (a INTEGER); INSERT INTO u VALUES (1), (2);"
      "DELETE FROM u WHERE a = 1"));
  EXPECT_TRUE(has_line("hippo_dml_index_probes_total 2"));
  EXPECT_TRUE(has_line("hippo_dml_rows_examined_total 101"));
}

// --- DML access-path differential ------------------------------------------
//
// Seeded scripts of INSERT, DELETE and UPDATE run on a Database with the
// maintained hypergraph and, through NaiveApplyDml, on a scan oracle. After
// every statement the two must hold the same rows in the same slots (so
// the same RowIds), the maintained graph must equal NaiveDetect over the
// oracle and a fresh DetectAll, and the statement must have taken the
// access path its WHERE shape calls for.

constexpr int64_t kBig = (int64_t{1} << 53) + 1;  // no double holds it
const char* const kColumns[] = {"a", "b", "d"};
const TypeId kTypes[] = {TypeId::kInt, TypeId::kString, TypeId::kDouble};

Value RandomCell(Rng* rng, size_t col) {
  if (rng->Chance(0.1)) return Value::Null();
  switch (col) {
    case 0: {
      const int64_t a[] = {0, 1, 2, 3, kBig};
      return Value::Int(a[rng->Uniform(5)]);
    }
    case 1: {
      const char* b[] = {"x", "y", "2"};
      return Value::String(b[rng->Uniform(3)]);
    }
    default: {
      const double d[] = {0.0, -0.0, 1.5, 2.0};
      return Value::Double(d[rng->Uniform(4)]);
    }
  }
}

Row RandomRow(Rng* rng) {
  return Row{RandomCell(rng, 0), RandomCell(rng, 1), RandomCell(rng, 2)};
}

std::string Literal(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt:
      return std::to_string(v.AsInt());
    case TypeId::kDouble:
      return StrFormat("%.1f", v.AsDouble());  // keeps the sign of -0.0
    case TypeId::kString:
      return "'" + v.AsString() + "'";
    default:
      return v.ToString();
  }
}

/// One conjunct of a generated WHERE, and whether it pins its column for
/// the probe (`col = constant` with a non-NULL constant of the column's
/// type).
struct Conjunct {
  std::string sql;
  size_t column;
  bool pins;
};

/// `col = literal(v)` with the literal on a random side, the column
/// sometimes qualified and an INTEGER sometimes as column-free arithmetic.
Conjunct Equality(Rng* rng, size_t col, const Value& v) {
  std::string constant = Literal(v);
  if (v.type() == TypeId::kInt && rng->Chance(0.3)) {
    constant = StrFormat("(%lld + 1)", static_cast<long long>(v.AsInt() - 1));
  }
  std::string column = rng->Chance(0.3) ? std::string("t.") + kColumns[col]
                                         : std::string(kColumns[col]);
  std::string sql = rng->Chance(0.5) ? column + " = " + constant
                                     : constant + " = " + column;
  return {sql, col, !v.is_null() && v.type() == kTypes[col]};
}

/// The cell of column `col` as a literal of another type that compares
/// equal to it, where one exists: 2.0 or '2' for an INTEGER (2^53 as a
/// DOUBLE for kBig), an INTEGER for an integral DOUBLE.
std::optional<Value> Mistyped(Rng* rng, size_t col, const Value& v) {
  if (v.is_null()) return std::nullopt;
  if (col == 0) {
    if (v.AsInt() == kBig) return Value::Double(9007199254740992.0);
    if (rng->Chance(0.5)) return Value::String(std::to_string(v.AsInt()));
    return Value::Double(static_cast<double>(v.AsInt()));
  }
  if (col == 2 && std::floor(v.AsDouble()) == v.AsDouble()) {
    return Value::Int(static_cast<int64_t>(v.AsDouble()));
  }
  return std::nullopt;
}

/// What the differential covered, so a generator change cannot quietly
/// stop exercising a shape.
struct Coverage {
  size_t probes = 0, scans = 0, mistyped = 0, zero_flips = 0, big = 0;
  size_t dead_targets = 0, onto_existing = 0, ors = 0, errors = 0;
};

/// A WHERE aimed at `row`, in one of the shapes the access path must get
/// right. `*probe` is set to whether it pins every column.
std::string RandomWhere(Rng* rng, const Row& row, const Row& other,
                        bool* probe, Coverage* cov) {
  std::vector<Conjunct> conjuncts;
  const uint64_t shape = rng->Uniform(9);
  for (size_t col = 0; col < 3; ++col) {
    const Value& v = row[col];
    if (v.is_null() && rng->Chance(0.5)) {
      conjuncts.push_back(
          {std::string(kColumns[col]) + " IS NULL", col, false});
      continue;
    }
    std::optional<Value> swapped;
    if (shape == 1) swapped = Mistyped(rng, col, v);
    if (swapped.has_value()) {
      ++cov->mistyped;
      if (v.type() == TypeId::kInt && v.AsInt() == kBig) ++cov->big;
      conjuncts.push_back(Equality(rng, col, *swapped));
      continue;
    }
    if (shape == 2 && col == 2 && !v.is_null() && v.AsDouble() == 0.0) {
      ++cov->zero_flips;  // 0.0 against -0.0 and back
      conjuncts.push_back(Equality(rng, col, Value::Double(-v.AsDouble())));
      continue;
    }
    if (v.type() == TypeId::kInt && v.AsInt() == kBig) ++cov->big;
    conjuncts.push_back(Equality(rng, col, v));
  }
  switch (shape) {
    case 3:  // a column bound twice to the same value
      conjuncts.push_back(Equality(rng, 0, row[0]));
      break;
    case 4:  // ... and to a conflicting one
      conjuncts.push_back(Equality(rng, 0, RandomCell(rng, 0)));
      break;
    case 5:  // a NULL literal
      conjuncts.push_back(Equality(rng, rng->Uniform(3), Value::Null()));
      break;
    case 6:  // an extra range conjunct
      conjuncts.push_back(rng->Chance(0.5) ? Conjunct{"a >= 1", 0, false}
                                           : Conjunct{"d < 2.0", 2, false});
      break;
    default:
      break;
  }
  for (size_t i = conjuncts.size(); i > 1; --i) {
    std::swap(conjuncts[i - 1], conjuncts[rng->Uniform(i)]);
  }
  bool pinned[3] = {false, false, false};
  std::string sql;
  for (const Conjunct& c : conjuncts) {
    if (!sql.empty()) sql += " AND ";
    sql += c.sql;
    pinned[c.column] = pinned[c.column] || c.pins;
  }
  *probe = pinned[0] && pinned[1] && pinned[2];
  if (shape == 7) {  // an OR of two full-row equalities: never a probe
    ++cov->ors;
    *probe = false;
    std::string right;
    for (size_t col = 0; col < 3; ++col) {
      if (!right.empty()) right += " AND ";
      right += Equality(rng, col, other[col]).sql;
    }
    sql = "(" + sql + ") OR (" + right + ")";
  }
  return sql;
}

bool SameCell(const Value& x, const Value& y) {
  if (x.type() != y.type() || !(x == y)) return false;
  return x.type() != TypeId::kDouble ||
         std::signbit(x.AsDouble()) == std::signbit(y.AsDouble());
}

class DmlAccessDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE t (a INTEGER, b VARCHAR, d DOUBLE);"
        "CREATE CONSTRAINT fd_ad FD ON t (a -> d);"
        "CREATE CONSTRAINT fd_ba FD ON t (b -> a)"));
    ASSERT_OK(db_.InsertRow("t", Row{Value::Int(kBig), Value::String("x"),
                                     Value::Double(1.5)}));
    ASSERT_OK(db_.InsertRow("t", Row{Value::Int(1), Value::String("y"),
                                     Value::Double(-0.0)}));
    for (int i = 0; i < 30; ++i) {
      ASSERT_OK(db_.InsertRow("t", RandomRow(&rng_)));
    }
    ASSERT_OK(db_.EnableIncrementalMaintenance());
    oracle_ = db_.catalog().Clone();
  }

  const Table& Mine() { return *db_.catalog().GetTable("t").value(); }
  Table& Oracle() { return *oracle_.GetTable("t").value(); }

  void ExpectSameState(const std::string& context) {
    const Table& mine = Mine();
    const Table& oracle = Oracle();
    ASSERT_EQ(mine.NumRows(), oracle.NumRows()) << context;
    for (uint32_t i = 0; i < mine.NumRows(); ++i) {
      ASSERT_EQ(mine.IsLive(i), oracle.IsLive(i)) << context << " slot " << i;
      for (size_t c = 0; c < 3; ++c) {
        ASSERT_TRUE(SameCell(mine.row(i)[c], oracle.row(i)[c]))
            << context << " slot " << i << ": " << RowToString(mine.row(i))
            << " vs " << RowToString(oracle.row(i));
      }
    }
    ASSERT_TRUE(db_.hypergraph_current()) << context;
    auto maintained = db_.Hypergraph();
    ASSERT_OK(maintained.status());
    auto edges = maintained.value()->CanonicalEdges();
    EXPECT_EQ(edges, NaiveDetect(oracle_, db_.constraints(),
                                 db_.foreign_keys())
                         .CanonicalEdges())
        << context;
    ConflictDetector detector(db_.catalog(), DetectOptions());
    auto fresh = detector.DetectAll(db_.constraints(), db_.foreign_keys());
    ASSERT_OK(fresh.status());
    EXPECT_EQ(edges, fresh.value().CanonicalEdges()) << context;
  }

  Rng rng_{GetParam()};
  Database db_;
  Catalog oracle_;
};

TEST_P(DmlAccessDifferentialTest, ProbeAgreesWithTheScanOracle) {
  Coverage cov;
  for (int step = 0; step < 120; ++step) {
    const Table& mine = Mine();
    if (rng_.Uniform(4) == 0 || mine.NumLiveRows() == 0) {
      Row row = RandomRow(&rng_);
      ASSERT_OK(db_.InsertRow("t", row));
      ASSERT_OK(Oracle().Insert(row).status());
      ExpectSameState(StrFormat("step %d insert", step));
      continue;
    }
    // Aim at any slot, tombstoned ones included, or at random values.
    Row target = RandomRow(&rng_);
    if (rng_.Chance(0.8)) {
      auto slot = static_cast<uint32_t>(rng_.Uniform(mine.NumRows()));
      target = mine.row(slot);
      if (!mine.IsLive(slot)) ++cov.dead_targets;
    }
    Row other = mine.row(rng_.Uniform(mine.NumRows()));
    bool probe = false;
    std::string where = RandomWhere(&rng_, target, other, &probe, &cov);
    std::string sql;
    if (rng_.Chance(0.5)) {
      sql = "DELETE FROM t WHERE " + where;
    } else {
      std::string set;
      switch (rng_.Uniform(4)) {
        case 0:
          set = "b = 'y'";
          break;
        case 1:
          set = "d = d + 1.5";
          break;
        case 2:
          set = "a = a + 1";
          break;
        default:  // onto another row, which may exist already
          ++cov.onto_existing;
          set = StrFormat("a = %s, b = %s, d = %s", Literal(other[0]).c_str(),
                          Literal(other[1]).c_str(),
                          Literal(other[2]).c_str());
      }
      sql = "UPDATE t SET " + set + " WHERE " + where;
    }
    const DmlStats before = db_.dml_stats();
    Status mine_status = db_.Execute(sql);
    Status oracle_status = NaiveApplyDml(&oracle_, sql);
    ASSERT_EQ(mine_status.ok(), oracle_status.ok())
        << sql << ": " << mine_status.ToString() << " / "
        << oracle_status.ToString();
    if (!mine_status.ok()) {
      ++cov.errors;  // e.g. a VARCHAR literal against an INTEGER column
      continue;
    }
    EXPECT_EQ(db_.dml_stats().index_probes - before.index_probes,
              probe ? 1u : 0u)
        << sql;
    ++(probe ? cov.probes : cov.scans);
    ExpectSameState(StrFormat("step %d: %s", step, sql.c_str()));
  }
  EXPECT_GT(cov.probes, 10u);
  EXPECT_GT(cov.scans, 10u);
  EXPECT_GT(cov.mistyped, 0u);
  EXPECT_GT(cov.zero_flips, 0u);
  EXPECT_GT(cov.big, 0u);
  EXPECT_GT(cov.dead_targets, 0u);
  EXPECT_GT(cov.onto_existing, 0u);
  EXPECT_GT(cov.ors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmlAccessDifferentialTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace hippo
