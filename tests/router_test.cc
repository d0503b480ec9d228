// Query-router unit tests: conjunctive decomposition, Koutris–Wijsen
// attack graphs on the textbook tractable/intractable examples, KW key
// eligibility, the NULL-semantics clique gate, and the force-route
// overrides.
#include "plan/router.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

// ---------------------------------------------------------------------------
// DecomposeConjunctive

class RouterDecomposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE r (a INTEGER, b INTEGER);"
        "CREATE TABLE s (a INTEGER, b INTEGER)"));
  }

  PlanNodePtr Plan(const std::string& sql) {
    auto plan = db_.Plan(sql);
    EXPECT_OK(plan.status()) << sql;
    return std::move(plan).value();
  }

  Database db_;
};

TEST_F(RouterDecomposeTest, JoinWithEqualityClasses) {
  auto shape = DecomposeConjunctive(
      *Plan("SELECT r.a, s.b FROM r, s WHERE r.b = s.a AND r.a > 1"));
  ASSERT_OK(shape.status());
  const ConjunctiveShape& sh = shape.value();
  ASSERT_EQ(sh.atoms.size(), 2u);
  EXPECT_EQ(sh.atoms[0].table_name, "r");
  EXPECT_EQ(sh.atoms[1].table_name, "s");
  EXPECT_EQ(sh.atoms[0].offset, 0u);
  EXPECT_EQ(sh.atoms[1].offset, 2u);
  EXPECT_EQ(sh.total_width, 4u);
  // r.b (global 1) and s.a (global 2) share a class; the other two
  // positions are singletons: 3 classes total.
  EXPECT_EQ(sh.num_classes, 3u);
  EXPECT_EQ(sh.class_of[1], sh.class_of[2]);
  EXPECT_NE(sh.class_of[0], sh.class_of[1]);
  EXPECT_NE(sh.class_of[3], sh.class_of[1]);
  // Output: r.a (global 0) and s.b (global 3).
  ASSERT_EQ(sh.project_cols.size(), 2u);
  EXPECT_EQ(sh.project_cols[0], 0u);
  EXPECT_EQ(sh.project_cols[1], 3u);
  // r.a > 1 became a local predicate of atom 0.
  EXPECT_FALSE(sh.atom_local[0].empty());
  EXPECT_EQ(sh.FreeClasses().size(), 2u);
}

TEST_F(RouterDecomposeTest, RejectsNonConjunctivePlans) {
  EXPECT_EQ(DecomposeConjunctive(
                *Plan("SELECT * FROM r UNION SELECT * FROM s"))
                .status()
                .code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(DecomposeConjunctive(
                *Plan("SELECT * FROM r, s WHERE r.a < s.a"))
                .status()
                .code(),
            StatusCode::kNotSupported);  // cross-atom non-equality
}

TEST_F(RouterDecomposeTest, RootSortIsCaptured) {
  auto shape = DecomposeConjunctive(*Plan("SELECT a, b FROM r ORDER BY a"));
  ASSERT_OK(shape.status());
  EXPECT_NE(shape.value().root_sort, nullptr);
}

// ---------------------------------------------------------------------------
// Attack graph

TEST(AttackGraphTest, TractableChainIsAcyclic) {
  // Boolean R(x, y) ⋈ S(y, z), key(R) = {x}, key(S) = {y} — the canonical
  // tractable Koutris–Wijsen example. R attacks S through y (y is outside
  // the closure of {x}), S does not attack R (y is its own key), so the
  // graph is acyclic with R as the unattacked pivot.
  const size_t x = 0, y = 1, z = 2;
  AttackGraph g = BuildAttackGraph(
      /*key_classes=*/{{x}, {y}},
      /*var_classes=*/{{x, y}, {y, z}},
      /*free_classes=*/{}, /*num_classes=*/3);
  EXPECT_TRUE(g.acyclic);
  EXPECT_TRUE(g.attacks[0][1]);
  EXPECT_FALSE(g.attacks[1][0]);
  ASSERT_TRUE(g.UnattackedAtom().has_value());
  EXPECT_EQ(g.UnattackedAtom().value(), 0u);
}

TEST(AttackGraphTest, MutualAttackIsCyclic) {
  // Boolean R(x, y) ⋈ S(y, x), key(R) = {x}, key(S) = {y}: each atom
  // attacks the other through the variable that is not its own key —
  // certain answers here are coNP-complete and the router must refuse.
  const size_t x = 0, y = 1;
  AttackGraph g = BuildAttackGraph(
      /*key_classes=*/{{x}, {y}},
      /*var_classes=*/{{x, y}, {x, y}},
      /*free_classes=*/{}, /*num_classes=*/2);
  EXPECT_FALSE(g.acyclic);
  EXPECT_TRUE(g.attacks[0][1]);
  EXPECT_TRUE(g.attacks[1][0]);
  EXPECT_FALSE(g.UnattackedAtom().has_value());
}

TEST(AttackGraphTest, FreeVariablesDisarmAttacks) {
  // Same chain as the tractable example, but with y free (projected):
  // free variables seed every closure, so the R→S attack through y
  // disappears and both atoms are unattacked.
  const size_t x = 0, y = 1, z = 2;
  AttackGraph g = BuildAttackGraph(
      /*key_classes=*/{{x}, {y}},
      /*var_classes=*/{{x, y}, {y, z}},
      /*free_classes=*/{y}, /*num_classes=*/3);
  EXPECT_TRUE(g.acyclic);
  EXPECT_FALSE(g.attacks[0][1]);
  EXPECT_FALSE(g.attacks[1][0]);
}

// ---------------------------------------------------------------------------
// KW key eligibility

class KwKeyColumnsTest : public ::testing::Test {
 protected:
  uint32_t TableId(const std::string& name) {
    auto plan = db_.Plan("SELECT * FROM " + name);
    EXPECT_OK(plan.status()) << name;
    return *CollectPlanTables(*plan.value()).begin();
  }
  Database db_;
};

TEST_F(KwKeyColumnsTest, PrimaryKeyFdAndBareTables) {
  ASSERT_OK(db_.Execute(
      "CREATE TABLE keyed (k INTEGER, v1 INTEGER, v2 INTEGER);"
      "CREATE CONSTRAINT pk FD ON keyed (k -> v1, v2);"
      "CREATE TABLE bare (a INTEGER, b INTEGER)"));
  auto keyed = KwKeyColumns(TableId("keyed"), db_.catalog(),
                            db_.constraints(), db_.foreign_keys());
  ASSERT_OK(keyed.status());
  EXPECT_EQ(keyed.value(), std::vector<size_t>{0});
  // No constraints: key = the whole row (no two distinct tuples conflict).
  auto bare = KwKeyColumns(TableId("bare"), db_.catalog(), db_.constraints(),
                           db_.foreign_keys());
  ASSERT_OK(bare.status());
  EXPECT_EQ(bare.value(), (std::vector<size_t>{0, 1}));
}

TEST_F(KwKeyColumnsTest, PartialFdIsNotAPrimaryKey) {
  // The FD does not cover column c: repairs are not one-choice-per-block.
  ASSERT_OK(db_.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  EXPECT_EQ(KwKeyColumns(TableId("t"), db_.catalog(), db_.constraints(),
                         db_.foreign_keys())
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(KwKeyColumnsTest, ForeignKeyRoleDisqualifies) {
  // FK DDL here requires a constraint-free parent (its tuples must be
  // immutable across repairs); both roles still disqualify a table from
  // the KW primary-key class — FK edges are not one-choice-per-block.
  ASSERT_OK(db_.Execute(
      "CREATE TABLE parent (k INTEGER, v INTEGER);"
      "CREATE TABLE child (k INTEGER, w INTEGER);"
      "CREATE CONSTRAINT fk FOREIGN KEY child (k) REFERENCES parent (k)"));
  EXPECT_EQ(KwKeyColumns(TableId("parent"), db_.catalog(), db_.constraints(),
                         db_.foreign_keys())
                .status()
                .code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(KwKeyColumns(TableId("child"), db_.catalog(), db_.constraints(),
                         db_.foreign_keys())
                .status()
                .code(),
            StatusCode::kNotSupported);
}

// ---------------------------------------------------------------------------
// Clique gate

TEST(CliqueGateTest, CliqueBlocksPass) {
  // Two blocks: {0,1,2} fully connected (3 edges) and {5,6} (1 edge).
  ConflictHypergraph g;
  auto V = [](uint32_t row) { return RowId{0, row}; };
  g.AddEdge({V(0), V(1)}, 0);
  g.AddEdge({V(0), V(2)}, 0);
  g.AddEdge({V(1), V(2)}, 0);
  g.AddEdge({V(5), V(6)}, 0);
  EXPECT_TRUE(TableConflictsAreCliques(g, 0));
  EXPECT_TRUE(TableConflictsAreCliques(g, 7));  // untouched table: vacuous
}

TEST(CliqueGateTest, PathOfThreeFails) {
  // 0–1–2 without the 0–2 edge: the non-transitive shape NULL-laden FDs
  // can produce; "some repair keeps both endpoints" breaks the
  // one-choice-per-block structure the KW rewriting needs.
  ConflictHypergraph g;
  auto V = [](uint32_t row) { return RowId{0, row}; };
  g.AddEdge({V(0), V(1)}, 0);
  g.AddEdge({V(1), V(2)}, 0);
  EXPECT_FALSE(TableConflictsAreCliques(g, 0));
}

TEST(CliqueGateTest, CrossTableOrWideEdgesFail) {
  ConflictHypergraph cross;
  cross.AddEdge({RowId{0, 0}, RowId{1, 0}}, 0);
  EXPECT_FALSE(TableConflictsAreCliques(cross, 0));
  ConflictHypergraph wide;
  wide.AddEdge({RowId{0, 0}, RowId{0, 1}, RowId{0, 2}}, 0);
  EXPECT_FALSE(TableConflictsAreCliques(wide, 0));
}

// ---------------------------------------------------------------------------
// Force-route overrides (through the Database facade)

class ForceRouteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE emp (name VARCHAR, salary INTEGER);"
        "INSERT INTO emp VALUES ('smith', 50000), ('smith', 60000),"
        "                       ('jones', 40000);"
        "CREATE CONSTRAINT fd FD ON emp (name -> salary);"
        "CREATE TABLE clean (a INTEGER, b INTEGER);"
        "INSERT INTO clean VALUES (1, 2), (3, 4)"));
  }
  Database db_;
};

TEST_F(ForceRouteTest, ConflictFreeOnlyWhenNoEdgesTouchThePlan) {
  cqa::HippoOptions cf;
  cf.route = RouteMode::kForceConflictFree;
  cqa::HippoStats stats;
  auto ok = db_.ConsistentAnswers("SELECT a FROM clean", cf, &stats);
  ASSERT_OK(ok.status());
  EXPECT_EQ(ok.value().NumRows(), 2u);
  EXPECT_EQ(stats.route, RouteKind::kConflictFree);
  EXPECT_EQ(stats.routed_conflict_free, 1u);
  // emp has a live conflict edge: plain evaluation would not be certain.
  EXPECT_EQ(db_.ConsistentAnswers("SELECT * FROM emp", cf).status().code(),
            StatusCode::kNotSupported);
}

TEST_F(ForceRouteTest, ForceRewriteFailsOutsideTheFirstOrderClass) {
  cqa::HippoOptions rw;
  rw.route = RouteMode::kForceRewrite;
  // Difference is in neither first-order class.
  EXPECT_EQ(db_.ConsistentAnswers(
                   "SELECT * FROM emp EXCEPT SELECT * FROM emp", rw)
                .status()
                .code(),
            StatusCode::kNotSupported);
  // Self-join defeats both ABC completeness and KW's self-join-free
  // requirement for narrowing projection.
  EXPECT_EQ(db_.ConsistentAnswers(
                   "SELECT e1.name FROM emp AS e1, emp AS e2 "
                   "WHERE e1.salary = e2.salary",
                   rw)
                .status()
                .code(),
            StatusCode::kNotSupported);
  // In class: quantifier-free → ABC.
  cqa::HippoStats stats;
  auto ok = db_.ConsistentAnswers("SELECT * FROM emp", rw, &stats);
  ASSERT_OK(ok.status());
  EXPECT_EQ(stats.route, RouteKind::kRewriteAbc);
  // In class: narrowing projection over the key table → KW.
  cqa::HippoStats kw_stats;
  auto kw = db_.ConsistentAnswers("SELECT name FROM emp", rw, &kw_stats);
  ASSERT_OK(kw.status());
  EXPECT_EQ(kw_stats.route, RouteKind::kRewriteKw);
  EXPECT_EQ(kw.value().NumRows(), 2u);  // smith and jones are both certain
}

TEST_F(ForceRouteTest, ForceProverFailsOutsideSjud) {
  cqa::HippoOptions pr;
  pr.route = RouteMode::kForceProver;
  EXPECT_EQ(db_.ConsistentAnswers("SELECT name FROM emp", pr).status().code(),
            StatusCode::kNotSupported);
  cqa::HippoStats stats;
  auto ok = db_.ConsistentAnswers("SELECT * FROM emp", pr, &stats);
  ASSERT_OK(ok.status());
  EXPECT_EQ(stats.route, RouteKind::kProver);
  EXPECT_EQ(stats.routed_prover, 1u);
}

/// Depth of the first node of `kind` on a left-first walk, or -1.
int DepthOf(const PlanNode& node, PlanKind kind, int depth = 0) {
  if (node.kind() == kind) return depth;
  for (size_t i = 0; i < node.NumChildren(); ++i) {
    int d = DepthOf(node.child(i), kind, depth + 1);
    if (d >= 0) return d;
  }
  return -1;
}

TEST_F(ForceRouteTest, RewrittenPlanIsOptimized) {
  // The rewriter wraps the scan in an anti-join against its conflicting
  // partners; the selective filter must run below it, not on its output.
  auto plan = db_.Plan("SELECT * FROM emp WHERE salary > 45000");
  ASSERT_OK(plan.status());
  auto graph = db_.Hypergraph();
  ASSERT_OK(graph.status());
  auto route = ClassifyRoute(*plan.value(), db_.catalog(), &db_.constraints(),
                             &db_.foreign_keys(), graph.value(),
                             RouteMode::kForceRewrite);
  ASSERT_OK(route.status());
  ASSERT_NE(route.value().rewritten, nullptr);
  const PlanNode& rewritten = *route.value().rewritten;
  int anti = DepthOf(rewritten, PlanKind::kAntiJoin);
  int filter = DepthOf(rewritten, PlanKind::kFilter);
  ASSERT_GE(anti, 0) << rewritten.ToString();
  ASSERT_GE(filter, 0) << rewritten.ToString();
  EXPECT_GT(filter, anti) << rewritten.ToString();
}

TEST_F(ForceRouteTest, AutoPrefersCheaperRoutesAndStaysSound) {
  // Conflict-free beats rewriting beats prover; every route agrees with
  // exact all-repairs evaluation.
  struct Case {
    const char* sql;
    RouteKind expect;
  };
  const Case cases[] = {
      {"SELECT * FROM clean", RouteKind::kConflictFree},
      {"SELECT a FROM clean", RouteKind::kConflictFree},  // narrowing is fine
      {"SELECT * FROM emp", RouteKind::kRewriteAbc},
      {"SELECT name FROM emp", RouteKind::kRewriteKw},
      {"SELECT * FROM emp EXCEPT SELECT * FROM emp", RouteKind::kProver},
  };
  for (const Case& c : cases) {
    cqa::HippoStats stats;
    auto rs = db_.ConsistentAnswers(c.sql, cqa::HippoOptions(), &stats);
    ASSERT_OK(rs.status()) << c.sql;
    EXPECT_EQ(stats.route, c.expect) << c.sql;
    auto exact = db_.ConsistentAnswersAllRepairs(c.sql);
    if (exact.ok()) {
      EXPECT_EQ(SortedRows(rs.value()), SortedRows(exact.value())) << c.sql;
    }
  }
}

}  // namespace
}  // namespace hippo
