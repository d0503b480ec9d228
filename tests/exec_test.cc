// Executor tests: each operator, hash-vs-nested-loop equivalence, masks.
#include "exec/executor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/database.h"
#include "exec/operators.h"
#include "expr/binder.h"
#include "sql/parser.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE r (a INTEGER, b INTEGER);"
        "CREATE TABLE s (a INTEGER, b INTEGER);"
        "INSERT INTO r VALUES (1,10),(2,20),(3,30),(4,40);"
        "INSERT INTO s VALUES (2,20),(3,33),(5,50)"));
  }

  ResultSet Run(const std::string& q) {
    auto rs = db_.Query(q);
    EXPECT_OK(rs.status()) << q;
    return std::move(rs).value();
  }

  Database db_;
};

TEST_F(ExecTest, ScanAll) {
  EXPECT_EQ(Run("SELECT * FROM r").NumRows(), 4u);
}

TEST_F(ExecTest, FilterComparisons) {
  EXPECT_EQ(Run("SELECT * FROM r WHERE a > 2").NumRows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM r WHERE a >= 2 AND b <= 30").NumRows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM r WHERE a = 1 OR a = 4").NumRows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM r WHERE NOT (a = 1)").NumRows(), 3u);
}

TEST_F(ExecTest, ProjectionAndDedup) {
  // b%10=0 for all but (3,33); project b%10 -> duplicates collapse.
  ResultSet rs = Run("SELECT b % 10 FROM s");
  EXPECT_EQ(rs.NumRows(), 2u);  // {0, 3}
}

TEST_F(ExecTest, HashJoinOnEquality) {
  ResultSet rs = Run("SELECT * FROM r, s WHERE r.a = s.a");
  EXPECT_EQ(rs.NumRows(), 2u);
  EXPECT_TRUE(rs.Contains(Row{Value::Int(2), Value::Int(20), Value::Int(2),
                              Value::Int(20)}));
}

TEST_F(ExecTest, JoinWithResidualPredicate) {
  ResultSet rs = Run("SELECT * FROM r, s WHERE r.a = s.a AND r.b < s.b");
  EXPECT_EQ(rs.NumRows(), 1u);  // (3,30,3,33)
}

TEST_F(ExecTest, NestedLoopJoinOnInequality) {
  // Pairs with r.a < s.a: (1,2),(1,3),(1,5),(2,3),(2,5),(3,5),(4,5).
  ResultSet rs = Run("SELECT * FROM r, s WHERE r.a < s.a");
  EXPECT_EQ(rs.NumRows(), 7u);
}

TEST_F(ExecTest, CartesianProduct) {
  EXPECT_EQ(Run("SELECT * FROM r, s").NumRows(), 12u);
}

TEST_F(ExecTest, UnionDeduplicates) {
  EXPECT_EQ(Run("SELECT * FROM r UNION SELECT * FROM s").NumRows(), 6u);
  EXPECT_EQ(Run("SELECT * FROM r UNION SELECT * FROM r").NumRows(), 4u);
}

TEST_F(ExecTest, Difference) {
  ResultSet rs = Run("SELECT * FROM r EXCEPT SELECT * FROM s");
  EXPECT_EQ(rs.NumRows(), 3u);  // r minus (2,20)
  EXPECT_FALSE(rs.Contains(Row{Value::Int(2), Value::Int(20)}));
}

TEST_F(ExecTest, Intersect) {
  ResultSet rs = Run("SELECT * FROM r INTERSECT SELECT * FROM s");
  EXPECT_EQ(rs.NumRows(), 1u);
  EXPECT_TRUE(rs.Contains(Row{Value::Int(2), Value::Int(20)}));
}

TEST_F(ExecTest, SortAscDesc) {
  ResultSet rs = Run("SELECT * FROM r ORDER BY a DESC");
  ASSERT_EQ(rs.NumRows(), 4u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(4));
  EXPECT_EQ(rs.rows[3][0], Value::Int(1));
  ResultSet asc = Run("SELECT * FROM s ORDER BY b");
  EXPECT_EQ(asc.rows[0][1], Value::Int(20));
}

TEST_F(ExecTest, EmptyInputsFlowThrough) {
  ASSERT_OK(db_.Execute("CREATE TABLE e (a INTEGER, b INTEGER)"));
  EXPECT_EQ(Run("SELECT * FROM e").NumRows(), 0u);
  EXPECT_EQ(Run("SELECT * FROM e, r").NumRows(), 0u);
  EXPECT_EQ(Run("SELECT * FROM r EXCEPT SELECT * FROM e").NumRows(), 4u);
  EXPECT_EQ(Run("SELECT * FROM e UNION SELECT * FROM r").NumRows(), 4u);
  EXPECT_EQ(Run("SELECT * FROM e INTERSECT SELECT * FROM r").NumRows(), 0u);
}

TEST_F(ExecTest, NullJoinKeysNeverMatch) {
  ASSERT_OK(db_.Execute(
      "CREATE TABLE n1 (a INTEGER); CREATE TABLE n2 (a INTEGER);"
      "INSERT INTO n1 VALUES (NULL), (1); INSERT INTO n2 VALUES (NULL), (1)"));
  EXPECT_EQ(Run("SELECT * FROM n1, n2 WHERE n1.a = n2.a").NumRows(), 1u);
}

TEST_F(ExecTest, RowMaskHidesRows) {
  auto plan = db_.Plan("SELECT * FROM r");
  ASSERT_OK(plan.status());
  RowMask mask;
  mask.SetAllowed(0, {true, false, true, false});
  ExecContext ctx{&db_.catalog(), &mask};
  auto rs = Execute(*plan.value(), ctx);
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 2u);
}

TEST_F(ExecTest, ResultSetHelpers) {
  ResultSet rs = Run("SELECT * FROM r");
  EXPECT_TRUE(rs.Contains(Row{Value::Int(1), Value::Int(10)}));
  EXPECT_FALSE(rs.Contains(Row{Value::Int(9), Value::Int(9)}));
  rs.SortRows();
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
  std::string str = rs.ToString(2);
  EXPECT_NE(str.find("more"), std::string::npos);
}

// Property: hash join and nested-loop join agree on random inputs.
class JoinEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalence, HashEqualsNestedLoop) {
  Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE l (a INTEGER, b INTEGER);"
      "CREATE TABLE r (a INTEGER, b INTEGER)"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(db.InsertRow("l", Row{Value::Int(rng.UniformInt(0, 9)),
                                    Value::Int(rng.UniformInt(0, 9))}));
    ASSERT_OK(db.InsertRow("r", Row{Value::Int(rng.UniformInt(0, 9)),
                                    Value::Int(rng.UniformInt(0, 9))}));
  }
  // Equi-join (hash path)...
  auto hash_rs = db.Query("SELECT * FROM l, r WHERE l.a = r.a AND l.b <= r.b");
  ASSERT_OK(hash_rs.status());
  // ...same semantics phrased so no equi-pair is extractable (NL path):
  // l.a <= r.a AND l.a >= r.a  ⇔  l.a = r.a.
  auto nl_rs = db.Query(
      "SELECT * FROM l, r WHERE l.a <= r.a AND l.a >= r.a AND l.b <= r.b");
  ASSERT_OK(nl_rs.status());
  EXPECT_EQ(SortedRows(hash_rs.value()), SortedRows(nl_rs.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: set operations satisfy algebraic identities on random inputs.
class SetOpLaws : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SetOpLaws, IntersectionViaDoubleDifference) {
  Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE x (a INTEGER); CREATE TABLE y (a INTEGER)"));
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(db.InsertRow("x", Row{Value::Int(rng.UniformInt(0, 14))}));
    ASSERT_OK(db.InsertRow("y", Row{Value::Int(rng.UniformInt(0, 14))}));
  }
  auto direct = db.Query("SELECT * FROM x INTERSECT SELECT * FROM y");
  auto derived = db.Query(
      "SELECT * FROM x EXCEPT (SELECT * FROM x EXCEPT SELECT * FROM y)");
  ASSERT_OK(direct.status());
  ASSERT_OK(derived.status());
  EXPECT_EQ(SortedRows(direct.value()), SortedRows(derived.value()));
}

TEST_P(SetOpLaws, UnionIdempotentAndCommutative) {
  Rng rng(GetParam() + 100);
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE x (a INTEGER); CREATE TABLE y (a INTEGER)"));
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(db.InsertRow("x", Row{Value::Int(rng.UniformInt(0, 14))}));
    ASSERT_OK(db.InsertRow("y", Row{Value::Int(rng.UniformInt(0, 14))}));
  }
  auto xy = db.Query("SELECT * FROM x UNION SELECT * FROM y");
  auto yx = db.Query("SELECT * FROM y UNION SELECT * FROM x");
  auto xx = db.Query("SELECT * FROM x UNION SELECT * FROM x");
  auto x = db.Query("SELECT * FROM x");
  ASSERT_OK(xy.status());
  EXPECT_EQ(SortedRows(xy.value()), SortedRows(yx.value()));
  EXPECT_EQ(SortedRows(xx.value()), SortedRows(x.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpLaws,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(OperatorsTest, DedupPreservesFirstOccurrenceOrder) {
  std::vector<Row> rows = {{Value::Int(2)}, {Value::Int(1)}, {Value::Int(2)},
                           {Value::Int(3)}, {Value::Int(1)}};
  std::vector<Row> out =
      exec::DedupBatch(ColumnBatch::FromRows(rows, {TypeId::kInt})).ToRows();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][0], Value::Int(2));
  EXPECT_EQ(out[1][0], Value::Int(1));
  EXPECT_EQ(out[2][0], Value::Int(3));
}

/// Cell-exact row equality: the same values AND the same runtime types
/// (Row's operator== treats Int(2) and Double(2.0) as equal).
void ExpectSameCells(const std::vector<Row>& got, const std::vector<Row>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what;
    for (size_t c = 0; c < got[i].size(); ++c) {
      EXPECT_EQ(got[i][c].type(), want[i][c].type()) << what << " row " << i;
      EXPECT_EQ(got[i][c], want[i][c]) << what << " row " << i;
    }
  }
}

TEST(OperatorsTest, SetOpsMatchLinearScansOnNullsDuplicatesAndMixedNumerics) {
  // Duplicate rows, NULL cells (NULL equals NULL under set semantics), and
  // Int(2) vs Double(2.0) cells, which are equal and hash alike; the first
  // occurrence wins, with its own type. Both inputs also run narrowed to a
  // selection, so physical and logical rows differ.
  Value n = Value::Null();
  std::vector<Row> left = {
      {Value::Int(2), n},          {Value::Double(2.0), n},
      {Value::Int(1), Value::Int(1)}, {n, n},
      {Value::Int(2), n},          {Value::Int(3), Value::Double(1.5)},
      {n, n},                      {Value::Double(1.0), Value::Int(1)},
      {Value::Int(6), Value::Int(6)}};
  std::vector<Row> right = {
      {n, n},
      {Value::Double(3.0), Value::Double(1.5)},
      {Value::Int(4), Value::Int(4)},
      {Value::Int(4), Value::Int(4)},
      {Value::Double(2.0), n},
      {Value::Int(5), n},
      {Value::Int(6), n}};
  std::vector<TypeId> types = {TypeId::kInt, TypeId::kDouble};
  for (bool narrowed : {false, true}) {
    ColumnBatch lb = ColumnBatch::FromRows(left, types);
    ColumnBatch rb = ColumnBatch::FromRows(right, types);
    std::vector<Row> l = left, r = right;
    if (narrowed) {
      // Drop the first row of each side.
      std::vector<uint32_t> lk, rk;
      for (uint32_t i = 1; i < left.size(); ++i) lk.push_back(i);
      for (uint32_t i = 1; i < right.size(); ++i) rk.push_back(i);
      lb = lb.Narrow(lk);
      rb = rb.Narrow(rk);
      l.erase(l.begin());
      r.erase(r.begin());
    }
    std::vector<Row> want_union = l;
    want_union.insert(want_union.end(), r.begin(), r.end());
    want_union = naive_internal::Distinct(want_union);
    std::vector<Row> want_diff, want_inter;
    for (const Row& row : naive_internal::Distinct(l)) {
      (naive_internal::Contains(r, row) ? want_inter : want_diff)
          .push_back(row);
    }
    std::string what = narrowed ? " (narrowed)" : "";
    ExpectSameCells(
        exec::SetOpBatch(PlanKind::kUnion, lb, rb, types).ToRows(),
        want_union, "union" + what);
    ExpectSameCells(
        exec::SetOpBatch(PlanKind::kDifference, lb, rb, types).ToRows(),
        want_diff, "difference" + what);
    ExpectSameCells(
        exec::SetOpBatch(PlanKind::kIntersect, lb, rb, types).ToRows(),
        want_inter, "intersect" + what);
    ExpectSameCells(exec::DedupBatch(lb).ToRows(), naive_internal::Distinct(l),
                    "dedup" + what);
  }
}

TEST(OperatorsTest, FlatHashIndexComparesFullHashesBeforeKeys) {
  // 64 rows with 64 distinct hashes in 64 buckets: buckets are shared, but
  // the key predicate only ever sees the row whose stored hash matches.
  constexpr uint32_t kRows = 64;
  FlatHashIndex index(kRows);
  for (uint32_t r = kRows; r-- > 0;) index.Insert(r, 1000 + r);
  for (uint32_t r = 0; r < kRows; ++r) {
    size_t calls = 0;
    auto eq = [&](uint32_t row) {
      ++calls;
      EXPECT_EQ(row, r);
      return true;
    };
    EXPECT_EQ(index.Find(1000 + r, eq), r);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(index.Find(1000 + r, eq, r), FlatHashIndex::kNone);
  }
  EXPECT_EQ(index.Find(7, [](uint32_t) { return true; }),
            FlatHashIndex::kNone);
}

TEST(OperatorsTest, FlatHashIndexChainsKeepInsertionOrderUnderCollisions) {
  // Every row under one hash: the chain is the whole index. Rows inserted
  // in descending order come back ascending, filtered by the key.
  FlatHashIndex index(10);
  for (uint32_t r = 10; r-- > 0;) index.Insert(r, 42);
  auto even = [](uint32_t row) { return row % 2 == 0; };
  std::vector<uint32_t> got;
  for (uint32_t r = index.Find(42, even); r != FlatHashIndex::kNone;
       r = index.Find(42, even, r)) {
    got.push_back(r);
  }
  EXPECT_EQ(got, (std::vector<uint32_t>{0, 2, 4, 6, 8}));
}

TEST(OperatorsTest, AntiJoinPlanKeepsUnmatchedAndNullKeyedRows) {
  // l rows with no m partner under l.x = m.y: a NULL key matches nothing,
  // so the NULL-keyed l row survives and the NULL m row removes nothing.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE l (x INTEGER); CREATE TABLE m (y INTEGER);"
      "INSERT INTO l VALUES (1),(2),(NULL),(3),(2);"
      "INSERT INTO m VALUES (2),(NULL)"));
  auto l = db.catalog().GetTable("l");
  auto m = db.catalog().GetTable("m");
  ASSERT_OK(l.status());
  ASSERT_OK(m.status());
  auto cond = std::make_unique<ComparisonExpr>(
      CompareOp::kEq, ColumnRefExpr::Bound(0, TypeId::kInt),
      ColumnRefExpr::Bound(1, TypeId::kInt));
  cond->set_result_type(TypeId::kBool);
  AntiJoinNode plan(
      ScanNode::Make(l.value()->id(), "l", "l", l.value()->schema()),
      ScanNode::Make(m.value()->id(), "m", "m", m.value()->schema()),
      std::move(cond));
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecContext ctx{&db.catalog(), nullptr};
    ctx.parallel.num_threads = threads;
    ctx.parallel.min_partition_rows = 1;
    auto rs = Execute(plan, ctx);
    ASSERT_OK(rs.status());
    std::vector<Row> want = {{Value::Int(1)}, {Value::Null()}, {Value::Int(3)}};
    EXPECT_EQ(rs.value().rows, want) << threads << " threads";
  }
}

}  // namespace
}  // namespace hippo
