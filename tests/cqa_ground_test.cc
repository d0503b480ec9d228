// Grounding tests: formulas produced for each operator of the query class,
// plus the envelope construction.
#include "cqa/ground_formula.h"

#include <gtest/gtest.h>

#include "cqa/engine.h"
#include "cqa/envelope.h"
#include "cqa/knowledge.h"
#include "db/database.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

using cqa::GroundFormula;
using cqa::Grounder;
using cqa::IndexMembershipProvider;

class GroundTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE r (a INTEGER, b INTEGER);"
        "CREATE TABLE s (a INTEGER, b INTEGER);"
        "INSERT INTO r VALUES (1, 10), (2, 20);"
        "INSERT INTO s VALUES (1, 10), (3, 30)"));
  }

  /// The folded formula of `tuple` (a row of q's output) as a candidate.
  GroundFormula Ground(const std::string& q, const Row& tuple) {
    auto plan = db_.Plan(q);
    EXPECT_OK(plan.status());
    IndexMembershipProvider membership(db_.catalog());
    cqa::GroundProgram program(*plan.value());
    Grounder grounder(program, &membership);
    std::vector<TypeId> types;
    for (const Value& v : tuple) types.push_back(v.type());
    ColumnBatch batch = ColumnBatch::FromRows({tuple}, types);
    EXPECT_OK(grounder.Probe(batch, 0, nullptr).status());
    return grounder.Formula(batch, 0);
  }

  Database db_;
};

TEST_F(GroundTest, ScanPresentFactIsLiteral) {
  GroundFormula f =
      Ground("SELECT * FROM r", Row{Value::Int(1), Value::Int(10)});
  ASSERT_EQ(f.kind, GroundFormula::Kind::kLit);
  EXPECT_EQ(f.fact, (RowId{0, 0}));
}

TEST_F(GroundTest, ScanAbsentFactIsFalse) {
  GroundFormula f =
      Ground("SELECT * FROM r", Row{Value::Int(9), Value::Int(9)});
  ASSERT_TRUE(f.IsConst());
  EXPECT_FALSE(f.const_value);
}

TEST_F(GroundTest, SelectionConstantFoldsPredicate) {
  GroundFormula pass = Ground("SELECT * FROM r WHERE b > 5",
                              Row{Value::Int(1), Value::Int(10)});
  EXPECT_EQ(pass.kind, GroundFormula::Kind::kLit);
  GroundFormula fail = Ground("SELECT * FROM r WHERE b > 15",
                              Row{Value::Int(1), Value::Int(10)});
  ASSERT_TRUE(fail.IsConst());
  EXPECT_FALSE(fail.const_value);
}

TEST_F(GroundTest, ProductSplitsTuple) {
  GroundFormula f = Ground(
      "SELECT * FROM r, s WHERE r.a = s.a",
      Row{Value::Int(1), Value::Int(10), Value::Int(1), Value::Int(10)});
  ASSERT_EQ(f.kind, GroundFormula::Kind::kAnd);
  ASSERT_EQ(f.children.size(), 2u);
  EXPECT_EQ(f.children[0].fact, (RowId{0, 0}));
  EXPECT_EQ(f.children[1].fact, (RowId{1, 0}));
}

TEST_F(GroundTest, JoinConditionFailureIsFalse) {
  GroundFormula f = Ground(
      "SELECT * FROM r, s WHERE r.a = s.a",
      Row{Value::Int(1), Value::Int(10), Value::Int(3), Value::Int(30)});
  ASSERT_TRUE(f.IsConst());
  EXPECT_FALSE(f.const_value);
}

TEST_F(GroundTest, UnionIsDisjunction) {
  GroundFormula f = Ground("SELECT * FROM r UNION SELECT * FROM s",
                           Row{Value::Int(1), Value::Int(10)});
  ASSERT_EQ(f.kind, GroundFormula::Kind::kOr);
  EXPECT_EQ(f.children[0].fact, (RowId{0, 0}));
  EXPECT_EQ(f.children[1].fact, (RowId{1, 0}));
}

TEST_F(GroundTest, UnionOneSideAbsentSimplifies) {
  GroundFormula f = Ground("SELECT * FROM r UNION SELECT * FROM s",
                           Row{Value::Int(2), Value::Int(20)});
  // (2,20) only in r: formula simplifies to the single literal.
  ASSERT_EQ(f.kind, GroundFormula::Kind::kLit);
  EXPECT_EQ(f.fact, (RowId{0, 1}));
}

TEST_F(GroundTest, DifferenceIsConjunctionWithNegation) {
  GroundFormula f = Ground("SELECT * FROM r EXCEPT SELECT * FROM s",
                           Row{Value::Int(1), Value::Int(10)});
  ASSERT_EQ(f.kind, GroundFormula::Kind::kAnd);
  EXPECT_EQ(f.children[0].kind, GroundFormula::Kind::kLit);
  ASSERT_EQ(f.children[1].kind, GroundFormula::Kind::kNot);
  EXPECT_EQ(f.children[1].children[0].fact, (RowId{1, 0}));
}

TEST_F(GroundTest, DifferenceAbsentSubtrahendSimplifies) {
  GroundFormula f = Ground("SELECT * FROM r EXCEPT SELECT * FROM s",
                           Row{Value::Int(2), Value::Int(20)});
  // Not in s -> ¬FALSE = TRUE -> just the r literal.
  ASSERT_EQ(f.kind, GroundFormula::Kind::kLit);
}

TEST_F(GroundTest, IntersectIsConjunction) {
  GroundFormula f = Ground("SELECT * FROM r INTERSECT SELECT * FROM s",
                           Row{Value::Int(1), Value::Int(10)});
  ASSERT_EQ(f.kind, GroundFormula::Kind::kAnd);
}

TEST_F(GroundTest, ProjectionPermutationInverts) {
  GroundFormula f =
      Ground("SELECT b, a FROM r", Row{Value::Int(10), Value::Int(1)});
  ASSERT_EQ(f.kind, GroundFormula::Kind::kLit);
  EXPECT_EQ(f.fact, (RowId{0, 0}));
}

TEST_F(GroundTest, DuplicatedColumnMustAgree) {
  GroundFormula ok =
      Ground("SELECT a, b, a FROM r",
             Row{Value::Int(1), Value::Int(10), Value::Int(1)});
  EXPECT_EQ(ok.kind, GroundFormula::Kind::kLit);
  GroundFormula bad =
      Ground("SELECT a, b, a FROM r",
             Row{Value::Int(1), Value::Int(10), Value::Int(2)});
  ASSERT_TRUE(bad.IsConst());
  EXPECT_FALSE(bad.const_value);
}

TEST_F(GroundTest, FormulaEvalAndCollect) {
  GroundFormula f = Ground("SELECT * FROM r EXCEPT SELECT * FROM s",
                           Row{Value::Int(1), Value::Int(10)});
  std::vector<RowId> facts;
  f.CollectFacts(&facts);
  EXPECT_EQ(facts.size(), 2u);
  // r-present, s-absent => true.
  EXPECT_TRUE(f.Eval([](RowId rid) { return rid.table == 0; }));
  // both present => false (subtrahend kills it).
  EXPECT_FALSE(f.Eval([](RowId) { return true; }));
}

TEST_F(GroundTest, ConstantFoldingConnectives) {
  GroundFormula t = GroundFormula::True();
  GroundFormula f = GroundFormula::False();
  GroundFormula lit = GroundFormula::Lit(RowId{0, 0});
  EXPECT_TRUE(GroundFormula::And(t, t).const_value);
  EXPECT_FALSE(GroundFormula::And(t, f).const_value);
  EXPECT_EQ(GroundFormula::And(t, lit).kind, GroundFormula::Kind::kLit);
  EXPECT_TRUE(GroundFormula::Or(f, t).const_value);
  EXPECT_EQ(GroundFormula::Or(f, lit).kind, GroundFormula::Kind::kLit);
  EXPECT_FALSE(GroundFormula::Not(t).const_value);
  EXPECT_EQ(GroundFormula::Not(lit).kind, GroundFormula::Kind::kNot);
}

TEST_F(GroundTest, ToStringRendering) {
  GroundFormula f = Ground("SELECT * FROM r EXCEPT SELECT * FROM s",
                           Row{Value::Int(1), Value::Int(10)});
  std::string s = f.ToString();
  EXPECT_NE(s.find("&"), std::string::npos);
  EXPECT_NE(s.find("!"), std::string::npos);
}

// --- envelope -----------------------------------------------------------------

TEST_F(GroundTest, EnvelopeDropsSubtrahend) {
  auto plan = db_.Plan("SELECT * FROM r EXCEPT SELECT * FROM s");
  ASSERT_OK(plan.status());
  PlanNodePtr env = cqa::BuildEnvelope(*plan.value());
  // Envelope of r − s is just (the projection over) r.
  EXPECT_EQ(env->kind(), PlanKind::kProject);
  ExecContext ctx{&db_.catalog(), nullptr};
  auto rs = Execute(*env, ctx);
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 2u);  // all of r, including (1,10)
}

TEST_F(GroundTest, EnvelopeHomomorphicOnUnion) {
  auto plan = db_.Plan("SELECT * FROM r UNION SELECT * FROM s");
  ASSERT_OK(plan.status());
  PlanNodePtr env = cqa::BuildEnvelope(*plan.value());
  EXPECT_EQ(env->kind(), PlanKind::kUnion);
}

TEST_F(GroundTest, EnvelopeStripsSort) {
  auto plan = db_.Plan("SELECT * FROM r ORDER BY a");
  ASSERT_OK(plan.status());
  PlanNodePtr env = cqa::BuildEnvelope(*plan.value());
  EXPECT_NE(env->kind(), PlanKind::kSort);
}

TEST_F(GroundTest, EnvelopeIsSupersetOfAnswersInAnyRepair) {
  // Make s inconsistent, then check env(r − s) ⊇ (r − s)(repair) for all
  // repairs.
  ASSERT_OK(db_.Execute(
      "INSERT INTO s VALUES (1, 11);"
      "CREATE CONSTRAINT fd_s FD ON s (a -> b)"));
  auto plan = db_.Plan("SELECT * FROM r EXCEPT SELECT * FROM s");
  ASSERT_OK(plan.status());
  PlanNodePtr env = cqa::BuildEnvelope(*plan.value());
  ExecContext ctx{&db_.catalog(), nullptr};
  auto env_rs = Execute(*env, ctx);
  ASSERT_OK(env_rs.status());

  auto graph = db_.Hypergraph();
  ASSERT_OK(graph.status());
  RepairEnumerator re(db_.catalog(), *graph.value());
  auto masks = re.EnumerateMasks(100);
  ASSERT_OK(masks.status());
  for (const RowMask& mask : masks.value()) {
    ExecContext rctx{&db_.catalog(), &mask};
    auto rs = Execute(*plan.value(), rctx);
    ASSERT_OK(rs.status());
    for (const Row& row : rs.value().rows) {
      EXPECT_TRUE(env_rs.value().Contains(row))
          << "envelope missed " << RowToString(row);
    }
  }
}

// --- grounding counters ---------------------------------------------------

/// One case per SJUD operator on a small inconsistent instance: the
/// prover-route counters are pinned to the values the grounding order
/// defines (membership checks skipped under short-circuits, filtered and
/// constant candidates decided without the prover), in both membership
/// modes.
class GroundCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE r (a INTEGER, b INTEGER);"
        "CREATE TABLE s (a INTEGER, b INTEGER);"
        "INSERT INTO r VALUES (1, 10), (1, 11), (2, 20), (3, 30), (4, 44),"
        "                     (NULL, 5);"
        "INSERT INTO s VALUES (2, 20), (4, 40), (4, 41), (3, 31), (1, 10),"
        "                     (NULL, 5);"
        "CREATE CONSTRAINT fd_r FD ON r (a -> b);"
        "CREATE CONSTRAINT fd_s FD ON s (a -> b)"));
  }

  Database db_;
};

TEST_F(GroundCountersTest, CountersPinnedPerOperator) {
  // Envelope candidates always ground to a non-constant formula, so
  // constant_formulas stays 0 here (see the case below). The last two
  // queries skip lookups: a failed filter, and a FALSE left operand of a
  // difference, short-circuit their subtree.
  struct Case {
    const char* sql;
    size_t candidates, answers, membership_checks, filtered_shortcuts,
        prover_invocations, clauses_checked;
    // Without filtering every candidate reaches the prover.
    size_t clauses_unfiltered;
  };
  const Case cases[] = {
      {"SELECT * FROM r WHERE b > 10", 4, 3, 4, 3, 1, 1, 4},
      {"SELECT b, a FROM r", 6, 4, 6, 4, 2, 2, 6},
      {"SELECT a, b, a FROM r", 6, 4, 6, 4, 2, 2, 6},
      {"SELECT * FROM r, s", 36, 16, 72, 16, 20, 28, 60},
      {"SELECT * FROM r, s WHERE r.a = s.a", 6, 2, 12, 2, 4, 6, 10},
      {"SELECT * FROM r UNION SELECT * FROM s", 9, 6, 18, 5, 4, 4, 9},
      {"SELECT * FROM r EXCEPT SELECT * FROM s", 6, 2, 12, 4, 2, 2, 8},
      {"SELECT * FROM r INTERSECT SELECT * FROM s", 3, 2, 6, 2, 1, 1, 5},
      {"SELECT * FROM r UNION SELECT * FROM s WHERE b > 20", 9, 5, 14, 5, 4,
       4, 9},
      {"(SELECT * FROM r EXCEPT SELECT * FROM s) UNION "
       "(SELECT * FROM s EXCEPT SELECT * FROM r)",
       9, 3, 30, 5, 4, 5, 12},
  };
  for (const Case& c : cases) {
    for (auto mode : {cqa::HippoOptions::MembershipMode::kKnowledgeGathering,
                      cqa::HippoOptions::MembershipMode::kQuery}) {
      for (bool filtering : {true, false}) {
        cqa::HippoOptions options;
        options.route = RouteMode::kForceProver;
        options.membership = mode;
        options.use_filtering = filtering;
        cqa::HippoStats stats;
        auto rs = db_.ConsistentAnswers(c.sql, options, &stats);
        ASSERT_OK(rs.status()) << c.sql;
        std::string what =
            std::string(c.sql) + (filtering ? "" : " unfiltered");
        EXPECT_EQ(stats.candidates, c.candidates) << what;
        EXPECT_EQ(stats.answers, c.answers) << what;
        EXPECT_EQ(rs.value().NumRows(), c.answers) << what;
        EXPECT_EQ(stats.membership_checks, c.membership_checks) << what;
        EXPECT_EQ(stats.constant_formulas, 0u) << what;
        EXPECT_EQ(stats.filtered_shortcuts,
                  filtering ? c.filtered_shortcuts : 0)
            << what;
        EXPECT_EQ(stats.prover_invocations,
                  filtering ? c.prover_invocations : c.candidates)
            << what;
        EXPECT_EQ(stats.clauses_checked,
                  filtering ? c.clauses_checked : c.clauses_unfiltered)
            << what;
      }
    }
  }
}

TEST_F(GroundCountersTest, AbsentTupleIsAConstantFormula) {
  // A tuple no operand holds grounds to FALSE after its first lookup: the
  // intersection skips its right operand.
  auto plan = db_.Plan("SELECT * FROM r INTERSECT SELECT * FROM s");
  ASSERT_OK(plan.status());
  auto graph = db_.Hypergraph();
  ASSERT_OK(graph.status());
  cqa::HippoEngine engine(db_.catalog(), *graph.value());
  cqa::HippoStats stats;
  auto ok = engine.IsConsistentAnswer(*plan.value(),
                                      Row{Value::Int(7), Value::Int(7)},
                                      cqa::HippoOptions(), &stats);
  ASSERT_OK(ok.status());
  EXPECT_FALSE(ok.value());
  EXPECT_EQ(stats.constant_formulas, 1u);
  EXPECT_EQ(stats.membership_checks, 1u);
  EXPECT_EQ(stats.prover_invocations, 0u);
}

}  // namespace
}  // namespace hippo
