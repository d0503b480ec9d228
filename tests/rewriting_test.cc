// Query-rewriting baseline tests: correctness on its supported class and
// rejection outside it.
#include "rewriting/rewriter.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "db/database.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

class RewritingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE r (a INTEGER, b INTEGER);"
        "CREATE TABLE s (a INTEGER, b INTEGER);"
        "INSERT INTO r VALUES (1, 10), (1, 11), (2, 20), (3, 30);"
        "INSERT INTO s VALUES (2, 20), (3, 33), (4, 40);"
        "CREATE CONSTRAINT fd_r FD ON r (a -> b)"));
  }
  Database db_;
};

TEST_F(RewritingTest, SelectionMatchesHippoAndExact) {
  const std::string q = "SELECT * FROM r WHERE b >= 10";
  auto rewr = db_.ConsistentAnswersByRewriting(q);
  auto hippo_rs = db_.ConsistentAnswers(q);
  auto exact = db_.ConsistentAnswersAllRepairs(q);
  ASSERT_OK(rewr.status());
  ASSERT_OK(hippo_rs.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
  EXPECT_EQ(SortedRows(hippo_rs.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, JoinMatchesExact) {
  const std::string q = "SELECT * FROM r, s WHERE r.a = s.a";
  auto rewr = db_.ConsistentAnswersByRewriting(q);
  auto exact = db_.ConsistentAnswersAllRepairs(q);
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, RewrittenPlanContainsAntiJoin) {
  auto plan = db_.Plan("SELECT * FROM r");
  ASSERT_OK(plan.status());
  rewriting::QueryRewriter rewriter(db_.catalog(), db_.constraints());
  auto rewritten = rewriter.Rewrite(*plan.value());
  ASSERT_OK(rewritten.status());
  EXPECT_NE(rewritten.value()->ToString().find("AntiJoin"),
            std::string::npos);
  // Schema is preserved.
  EXPECT_EQ(rewritten.value()->schema().NumColumns(), 2u);
}

size_t CountKind(const PlanNode& node, PlanKind kind) {
  size_t n = node.kind() == kind ? 1 : 0;
  for (size_t i = 0; i < node.NumChildren(); ++i) {
    n += CountKind(node.child(i), kind);
  }
  return n;
}

/// The ABC rewrite of `sql` over `db`'s constraints, unoptimized.
PlanNodePtr RewriteOf(Database& db, const std::string& sql) {
  auto plan = db.Plan(sql);
  EXPECT_OK(plan.status()) << sql;
  rewriting::QueryRewriter rewriter(db.catalog(), db.constraints());
  auto rewritten = rewriter.Rewrite(*plan.value());
  EXPECT_OK(rewritten.status()) << sql;
  return std::move(rewritten).value();
}

TEST(RewritingPlanShape, FdGetsOneAntiJoinAndNoSelfPairFilter) {
  // A single tuple cannot violate an FD, and φ is symmetric in its two
  // atoms: one anti-join is the whole residue.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b)"));
  PlanNodePtr plan = RewriteOf(db, "SELECT * FROM p");
  EXPECT_EQ(CountKind(*plan, PlanKind::kAntiJoin), 1u) << plan->ToString();
  EXPECT_EQ(CountKind(*plan, PlanKind::kFilter), 0u) << plan->ToString();
}

TEST(RewritingPlanShape, NanDependentIsRefusedSoAnFdHasNoSelfPair) {
  // The FD residue has no self-pair filter because `b <> b` is never TRUE
  // on a stored tuple. NaN is the one value for which it would be, so a
  // NaN DOUBLE is refused at insert; infinities compare equal to
  // themselves and are kept.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (a INTEGER, b DOUBLE);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b)"));
  const double inf = std::numeric_limits<double>::infinity();
  Status nan = db.InsertRow(
      "p", Row{Value::Int(1),
               Value::Double(std::numeric_limits<double>::quiet_NaN())});
  EXPECT_EQ(nan.code(), StatusCode::kInvalidArgument) << nan.ToString();
  ASSERT_OK(db.InsertRow("p", Row{Value::Int(1), Value::Double(inf)}));
  ASSERT_OK(db.InsertRow("p", Row{Value::Int(2), Value::Double(inf)}));
  ASSERT_OK(db.InsertRow("p", Row{Value::Int(2), Value::Double(1.5)}));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM p");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM p");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  std::vector<Row> want = {{Value::Int(1), Value::Double(inf)}};
  EXPECT_EQ(SortedRows(rewr.value()), want);
  EXPECT_EQ(SortedRows(exact.value()), want);
}

TEST(RewritingPlanShape, KwNarrowingIsOneAntiJoinOrNone) {
  // A single-atom narrowing read never materializes conflict pairs: what
  // the FD already implies (agreement on the determinant a, a predicate
  // over a only) leaves nothing to test; a dependent-column predicate
  // leaves one anti-join.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b)"));
  for (const char* q :
       {"SELECT a FROM p", "SELECT a FROM p WHERE a >= 1 AND a < 4"}) {
    PlanNodePtr plan = RewriteOf(db, q);
    EXPECT_EQ(CountKind(*plan, PlanKind::kAntiJoin), 0u) << plan->ToString();
    EXPECT_EQ(CountKind(*plan, PlanKind::kJoin), 0u) << plan->ToString();
    EXPECT_EQ(CountKind(*plan, PlanKind::kDifference), 0u)
        << plan->ToString();
  }
  for (const char* q : {"SELECT a FROM p WHERE b > 0", "SELECT b FROM p",
                        "SELECT a FROM p WHERE a = b"}) {
    PlanNodePtr plan = RewriteOf(db, q);
    EXPECT_EQ(CountKind(*plan, PlanKind::kAntiJoin), 1u) << plan->ToString();
    EXPECT_EQ(CountKind(*plan, PlanKind::kJoin), 0u) << plan->ToString();
    EXPECT_EQ(CountKind(*plan, PlanKind::kDifference), 0u)
        << plan->ToString();
  }
}

TEST(RewritingPlanShape, SelfPairFilterStaysWhereOneTupleCanViolate) {
  // x.v = y.v holds for any non-NULL tuple paired with itself.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (v INTEGER);"
      "CREATE CONSTRAINT selfp DENIAL (p AS x, p AS y WHERE x.v = y.v)"));
  PlanNodePtr plan = RewriteOf(db, "SELECT * FROM p");
  EXPECT_GT(CountKind(*plan, PlanKind::kFilter), 0u) << plan->ToString();
  EXPECT_EQ(CountKind(*plan, PlanKind::kAntiJoin), 2u) << plan->ToString();
}

TEST(RewritingPlanShape, AsymmetricDenialKeepsBothAntiJoins) {
  // x.a < y.b is not symmetric: a tuple is guarded as x and as y.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT asym DENIAL (p AS x, p AS y WHERE x.a < y.b)"));
  PlanNodePtr plan = RewriteOf(db, "SELECT * FROM p");
  EXPECT_EQ(CountKind(*plan, PlanKind::kAntiJoin), 2u) << plan->ToString();
}

TEST_F(RewritingTest, UnionRejected) {
  EXPECT_EQ(db_.ConsistentAnswersByRewriting(
                    "SELECT * FROM r UNION SELECT * FROM s")
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(RewritingTest, DifferenceRejected) {
  EXPECT_EQ(db_.ConsistentAnswersByRewriting(
                    "SELECT * FROM r EXCEPT SELECT * FROM s")
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(RewritingTest, NarrowingProjectionServedByKoutrisWijsen) {
  // `SELECT a FROM r` drops a column, so the ABC residues reject it, but
  // r is a primary-key table and the (single-atom) attack graph is
  // trivially acyclic: the Koutris–Wijsen certain rewriting serves it.
  auto rewr = db_.ConsistentAnswersByRewriting("SELECT a FROM r");
  auto exact = db_.ConsistentAnswersAllRepairs("SELECT a FROM r");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
  // Key 1 is certain although its block conflicts: both repairs keep a=1.
  EXPECT_EQ(rewr.value().NumRows(), 3u);
}

TEST_F(RewritingTest, NarrowingSelfJoinStillRejected) {
  // Self-joins are outside the Koutris–Wijsen class, and the narrowing
  // projection keeps the ABC residues out too.
  EXPECT_EQ(db_.ConsistentAnswersByRewriting(
                    "SELECT r1.a FROM r AS r1, r AS r2 WHERE r1.b = r2.b")
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(RewritingTest, UnaryConstraintBecomesFilter) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (v INTEGER);"
      "INSERT INTO t VALUES (-1), (2), (3);"
      "CREATE CONSTRAINT pos DENIAL (t AS x WHERE x.v < 0)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM t");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM t");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
  EXPECT_EQ(rewr.value().NumRows(), 2u);
}

TEST_F(RewritingTest, ExclusionConstraintGuardsBothTables) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE a (k INTEGER); CREATE TABLE b (k INTEGER);"
      "INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (2), (3);"
      "CREATE CONSTRAINT ex EXCLUSION ON a (k), b (k)"));
  for (const char* q : {"SELECT * FROM a", "SELECT * FROM b"}) {
    auto rewr = db.ConsistentAnswersByRewriting(q);
    auto exact = db.ConsistentAnswersAllRepairs(q);
    ASSERT_OK(rewr.status());
    ASSERT_OK(exact.status());
    EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value())) << q;
  }
}

TEST_F(RewritingTest, OrderByPreserved) {
  auto rewr = db_.ConsistentAnswersByRewriting(
      "SELECT * FROM r ORDER BY a DESC");
  ASSERT_OK(rewr.status());
  ASSERT_EQ(rewr.value().NumRows(), 2u);
  EXPECT_EQ(rewr.value().rows[0][0], Value::Int(3));
}

TEST_F(RewritingTest, ThreeAtomConstraintRejected) {
  // The paper scopes the rewriting method to *universal binary*
  // constraints: a residue against a 3-atom constraint would have to check
  // that the two remaining atoms are jointly realizable in one repair,
  // which a single anti-join cannot express (it is complete only by
  // coincidence on instances whose partner pairs never conflict). The
  // rewriter rejects such constraints; Hippo itself covers them.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (k INTEGER, v INTEGER);"
      "INSERT INTO t VALUES (1, 1), (1, 2), (1, 3), (2, 9);"
      "CREATE CONSTRAINT trip DENIAL (t AS x, t AS y, t AS z WHERE "
      "x.k = y.k AND y.k = z.k AND x.v < y.v AND y.v < z.v)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM t");
  ASSERT_FALSE(rewr.ok());
  EXPECT_EQ(rewr.status().code(), StatusCode::kNotSupported);

  auto hippo_rs = db.ConsistentAnswers("SELECT * FROM t");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM t");
  ASSERT_OK(hippo_rs.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(hippo_rs.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, ResiduePartnersMustBePossible) {
  // Completeness regression test: a residue partner that is in NO repair
  // (here: an FK orphan) can never force a deletion. The naive residue
  // counted it and under-approximated the consistent answers.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE dir (k INTEGER);"
      "CREATE TABLE p (k INTEGER, v INTEGER);"
      "CREATE TABLE q (k INTEGER, v INTEGER);"
      "INSERT INTO dir VALUES (1);"
      "INSERT INTO p VALUES (9, 6);"   // k=9 has no parent: orphan
      "INSERT INTO q VALUES (1, 6);"   // excluded only by the orphan
      "CREATE CONSTRAINT ex EXCLUSION ON p (v), q (v);"
      "CREATE CONSTRAINT fk FOREIGN KEY p (k) REFERENCES dir (k)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM q");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM q");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  ASSERT_EQ(exact.value().NumRows(), 1u);  // q(1,6) is in every repair
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, ResiduePartnersExcludeUnaryViolators) {
  // Same completeness property with a unary constraint: a partner that
  // violates a unary denial rule is in no repair.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (v INTEGER);"
      "CREATE TABLE q (v INTEGER);"
      "INSERT INTO p VALUES (60);"     // violates cap: always deleted
      "INSERT INTO q VALUES (60);"
      "CREATE CONSTRAINT cap DENIAL (p AS x WHERE x.v > 50);"
      "CREATE CONSTRAINT ex EXCLUSION ON p (v), q (v)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM q");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM q");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  ASSERT_EQ(exact.value().NumRows(), 1u);
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, ResiduePartnersExcludeSelfPairViolators) {
  // And with a self-pair: p(5) satisfies x.v = y.v with itself, giving a
  // unary hyperedge — it is in no repair, so q(5) stays consistent.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (v INTEGER);"
      "CREATE TABLE q (v INTEGER);"
      "INSERT INTO p VALUES (5);"
      "INSERT INTO q VALUES (5);"
      "CREATE CONSTRAINT selfp DENIAL (p AS x, p AS y WHERE x.v = y.v);"
      "CREATE CONSTRAINT ex EXCLUSION ON p (v), q (v)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM q");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM q");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  ASSERT_EQ(exact.value().NumRows(), 1u);
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
}

// Property: on random FD-inconsistent instances with NULL cells, rewriting
// equals Hippo equals exact all-repairs for conjunctive queries, under FDs
// and under an asymmetric same-table denial; the Koutris–Wijsen narrowing
// reads equal exact all-repairs.
class RewritingDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewritingDifferential, AgreesOnRandomInstances) {
  Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE TABLE q (a INTEGER, b INTEGER);"
      "CREATE TABLE r (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b);"
      "CREATE CONSTRAINT fd_q FD ON q (a -> b);"
      "CREATE CONSTRAINT asym DENIAL (r AS x, r AS y WHERE x.a < y.b)"));
  // One cell in eight is NULL.
  auto cell = [&rng](int64_t hi) {
    return rng.UniformInt(0, 7) == 0 ? Value::Null()
                                     : Value::Int(rng.UniformInt(0, hi));
  };
  for (int i = 0; i < 16; ++i) {
    ASSERT_OK(db.InsertRow("p", Row{cell(5), cell(2)}));
    ASSERT_OK(db.InsertRow("q", Row{cell(5), cell(2)}));
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(db.InsertRow("r", Row{cell(5), cell(5)}));
  }
  for (const char* q :
       {"SELECT * FROM p", "SELECT * FROM p WHERE b > 0",
        "SELECT * FROM p, q WHERE p.a = q.a",
        "SELECT * FROM p, q WHERE p.a = q.a AND p.b <= q.b",
        "SELECT * FROM r", "SELECT * FROM r WHERE b > 2",
        "SELECT * FROM p, r WHERE p.a = r.a"}) {
    auto rewr = db.ConsistentAnswersByRewriting(q);
    auto hippo_rs = db.ConsistentAnswers(q);
    auto exact = db.ConsistentAnswersAllRepairs(q);
    ASSERT_OK(rewr.status()) << q;
    ASSERT_OK(hippo_rs.status()) << q;
    ASSERT_OK(exact.status()) << q;
    EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value())) << q;
    EXPECT_EQ(SortedRows(hippo_rs.value()), SortedRows(exact.value())) << q;
  }
  // Narrowing projections: Koutris–Wijsen. `a = b` puts the dependent b in
  // the key's variable class, so only the determinant column a may count
  // as agreed by the FD. The two-atom reads prune at a level with a
  // subquery: a key-only predicate goes, a dependent-column predicate and
  // agreement on a dependent answer column stay.
  for (const char* q : {"SELECT a FROM p", "SELECT b FROM p",
                        "SELECT a FROM p WHERE a >= 1 AND a < 4",
                        "SELECT a FROM p WHERE b > 0",
                        "SELECT a FROM p WHERE a = b",
                        "SELECT p.a FROM p, q WHERE p.b = q.a AND p.a >= 1",
                        "SELECT p.a FROM p, q WHERE p.b = q.a AND p.b > 0",
                        "SELECT p.b FROM p, q WHERE p.b = q.a",
                        "SELECT q.b FROM p, q WHERE p.b = q.a AND p.a < 4"}) {
    auto rewr = db.ConsistentAnswersByRewriting(q);
    auto exact = db.ConsistentAnswersAllRepairs(q);
    ASSERT_OK(rewr.status()) << q;
    ASSERT_OK(exact.status()) << q;
    EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value())) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewritingDifferential,
                         ::testing::Range<uint64_t>(200, 216));

}  // namespace
}  // namespace hippo
