#include "rewriting/rewriter.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "expr/evaluator.h"
#include "plan/router.h"
#include "plan/sjud.h"

namespace hippo::rewriting {

namespace {

/// Keeps rows where `cond` is FALSE *or NULL*. Residues must remove only
/// tuples that actually violate (cond TRUE); a bare NOT(cond) evaluates
/// NULL when cond does (SQL three-valued logic) and would also drop
/// tuples the conflict detector never flags — e.g. a unary CHECK over a
/// NULL value — making the rewriting incomplete on NULL-bearing data.
ExprPtr NotTrue(ExprPtr cond) {
  ExprPtr isnull = std::make_unique<IsNullExpr>(cond->Clone(), false);
  isnull->set_result_type(TypeId::kBool);
  ExprPtr not_cond = LogicalExpr::MakeNot(std::move(cond));
  not_cond->set_result_type(TypeId::kBool);
  ExprPtr out = LogicalExpr::MakeOr(std::move(not_cond), std::move(isnull));
  out->set_result_type(TypeId::kBool);
  return out;
}

/// Remaps the constraint condition for the anti-join layout where atom `p`
/// forms the left side and the remaining atoms (in order) the right side.
ExprPtr RemapCondition(const DenialConstraint& dc, size_t p) {
  // new left offset: 0 for atom p's columns.
  // new right offsets: others packed in order after the left width.
  std::vector<int> new_offset(dc.arity());
  size_t right_base = dc.atom_width(p);
  size_t acc = right_base;
  for (size_t i = 0; i < dc.arity(); ++i) {
    if (i == p) {
      new_offset[i] = 0;
    } else {
      new_offset[i] = static_cast<int>(acc);
      acc += dc.atom_width(i);
    }
  }
  ExprPtr cond = dc.condition() == nullptr
                     ? std::make_unique<LiteralExpr>(Value::Bool(true))
                     : dc.condition()->Clone();
  VisitColumnRefs(cond.get(), [&dc, &new_offset](ColumnRefExpr* ref) {
    int idx = ref->index();
    for (size_t i = 0; i < dc.arity(); ++i) {
      size_t start = dc.atom_offset(i);
      size_t end = start + dc.atom_width(i);
      if (static_cast<size_t>(idx) >= start &&
          static_cast<size_t>(idx) < end) {
        ref->ShiftIndex(new_offset[i] - static_cast<int>(start));
        return;
      }
    }
    HIPPO_CHECK_MSG(false, "constraint condition index out of range");
  });
  return cond;
}

}  // namespace

Result<PlanNodePtr> QueryRewriter::UnaryCleanScan(
    uint32_t table_id, const std::string& table_name,
    const std::string& alias) {
  const Table& table = catalog_.table(table_id);
  PlanNodePtr current =
      ScanNode::Make(table_id, table_name, alias, table.schema());

  // Foreign-key residue: a child tuple without a parent is in no repair
  // (parents are immutable in the restricted class). Expressed as
  // current − (current ⋉̸ parent).
  for (const ForeignKeyConstraint& fk : foreign_keys_) {
    if (fk.child_table() != table_id) continue;
    const Table& parent = catalog_.table(fk.parent_table());
    PlanNodePtr parent_scan = ScanNode::Make(parent.id(), parent.name(),
                                             parent.name(), parent.schema());
    size_t left_width = current->schema().NumColumns();
    std::vector<ExprPtr> eqs;
    for (size_t i = 0; i < fk.child_columns().size(); ++i) {
      size_t ci = fk.child_columns()[i];
      size_t pi = fk.parent_columns()[i];
      eqs.push_back(std::make_unique<ComparisonExpr>(
          CompareOp::kEq,
          ColumnRefExpr::Bound(ci, current->schema().column(ci).type),
          ColumnRefExpr::Bound(left_width + pi,
                               parent.schema().column(pi).type)));
      eqs.back()->set_result_type(TypeId::kBool);
    }
    PlanNodePtr orphans = std::make_unique<AntiJoinNode>(
        current->Clone(), std::move(parent_scan), AndAll(std::move(eqs)));
    current = std::make_unique<SetOpNode>(
        PlanKind::kDifference, std::move(current), std::move(orphans));
  }

  for (const DenialConstraint& dc : constraints_) {
    // Residue of a unary constraint: ¬φ(x̄) filters the scan directly
    // (NotTrue, not NOT: a NULL φ is not a violation).
    if (dc.IsUnary() && dc.atoms()[0].table_id == table_id) {
      ExprPtr cond = RemapCondition(dc, 0);
      current = std::make_unique<FilterNode>(std::move(current),
                                             NotTrue(std::move(cond)));
      continue;
    }
    // Self-pair residue: a same-table binary constraint can be violated by
    // a single tuple assigned to both atoms (the detector's self-join emits
    // {t, t}, a unary hyperedge) — such a tuple is in no repair either. An
    // FD has none: φ(x̄, x̄) needs some `col <> col`, which is never TRUE
    // on a stored tuple (Table::CoerceRow refuses a NaN DOUBLE, the one
    // value that is unequal to itself).
    if (dc.IsBinary() && !dc.fd_info().has_value() &&
        dc.atoms()[0].table_id == table_id &&
        dc.atoms()[1].table_id == table_id) {
      ExprPtr cond;
      if (dc.condition() == nullptr) {
        cond = std::make_unique<LiteralExpr>(Value::Bool(true));
      } else {
        cond = dc.condition()->Clone();
        // Collapse the second atom's columns onto the first (same table:
        // equal widths), turning φ(x̄, ȳ) into φ(x̄, x̄).
        int width = static_cast<int>(dc.atom_width(0));
        VisitColumnRefs(cond.get(), [width](ColumnRefExpr* ref) {
          if (ref->index() >= width) ref->ShiftIndex(-width);
        });
      }
      current = std::make_unique<FilterNode>(std::move(current),
                                             NotTrue(std::move(cond)));
    }
  }
  return current;
}

Result<PlanNodePtr> QueryRewriter::GuardScan(const ScanNode& scan) {
  // Base: tuples that can appear in some repair at all.
  HIPPO_ASSIGN_OR_RETURN(
      PlanNodePtr current,
      UnaryCleanScan(scan.table_id(), scan.table_name(), scan.alias()));

  for (const DenialConstraint& dc : constraints_) {
    if (!dc.IsBinary()) continue;  // unary handled by UnaryCleanScan
    for (size_t p = 0; p < dc.arity(); ++p) {
      if (dc.atoms()[p].table_id != scan.table_id()) continue;
      // Residue ∀ȳ ¬(partner(ȳ) ∧ φ): anti-join against the partner atom.
      // The partner side is itself restricted to tuples present in SOME
      // repair — a partner in no repair (FK orphan, unary violation) can
      // never force this tuple's deletion, and counting it would make the
      // rewriting incomplete.
      size_t o = 1 - p;
      HIPPO_ASSIGN_OR_RETURN(
          PlanNodePtr right,
          UnaryCleanScan(dc.atoms()[o].table_id, dc.atoms()[o].table_name,
                         dc.atoms()[o].alias));
      ExprPtr cond = RemapCondition(dc, p);
      // The anti-join left is `current` (same schema as the scan, width
      // preserved by previous guards), so indexes line up.
      current = std::make_unique<AntiJoinNode>(
          std::move(current), std::move(right), std::move(cond));
      // An FD's φ is symmetric under swapping its two same-table atoms, so
      // the residue at the second position would repeat this one.
      if (dc.fd_info().has_value()) break;
    }
  }
  return current;
}

Result<PlanNodePtr> QueryRewriter::RewriteNode(const PlanNode& node) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      if (scan.emit_rowid()) {
        return Status::NotSupported("rowid scans cannot be rewritten");
      }
      return GuardScan(scan);
    }
    case PlanKind::kFilter: {
      const auto& f = static_cast<const FilterNode&>(node);
      HIPPO_ASSIGN_OR_RETURN(PlanNodePtr child, RewriteNode(node.child(0)));
      return PlanNodePtr(std::make_unique<FilterNode>(
          std::move(child), f.predicate().Clone()));
    }
    case PlanKind::kProject: {
      const auto& p = static_cast<const ProjectNode&>(node);
      if (!IsSafeProjection(p)) {
        return Status::NotSupported(
            "query rewriting requires a quantifier-free query "
            "(safe projection)");
      }
      HIPPO_ASSIGN_OR_RETURN(PlanNodePtr child, RewriteNode(node.child(0)));
      std::vector<ExprPtr> exprs;
      for (size_t i = 0; i < p.NumExprs(); ++i) {
        exprs.push_back(p.expr(i).Clone());
      }
      return PlanNodePtr(std::make_unique<ProjectNode>(
          std::move(child), std::move(exprs), p.schema()));
    }
    case PlanKind::kProduct: {
      HIPPO_ASSIGN_OR_RETURN(PlanNodePtr left, RewriteNode(node.child(0)));
      HIPPO_ASSIGN_OR_RETURN(PlanNodePtr right, RewriteNode(node.child(1)));
      return PlanNodePtr(
          std::make_unique<ProductNode>(std::move(left), std::move(right)));
    }
    case PlanKind::kJoin: {
      const auto& j = static_cast<const JoinNode&>(node);
      HIPPO_ASSIGN_OR_RETURN(PlanNodePtr left, RewriteNode(node.child(0)));
      HIPPO_ASSIGN_OR_RETURN(PlanNodePtr right, RewriteNode(node.child(1)));
      return PlanNodePtr(std::make_unique<JoinNode>(
          std::move(left), std::move(right), j.condition().Clone()));
    }
    case PlanKind::kSort: {
      const auto& s = static_cast<const SortNode&>(node);
      HIPPO_ASSIGN_OR_RETURN(PlanNodePtr child, RewriteNode(node.child(0)));
      std::vector<SortNode::Key> keys;
      for (const SortNode::Key& k : s.keys()) {
        keys.push_back(SortNode::Key{k.expr->Clone(), k.ascending});
      }
      return PlanNodePtr(
          std::make_unique<SortNode>(std::move(child), std::move(keys)));
    }
    case PlanKind::kUnion:
    case PlanKind::kDifference:
    case PlanKind::kIntersect:
      return Status::NotSupported(
          "query rewriting does not support union/difference/intersection "
          "(this is Hippo's expressiveness advantage)");
    case PlanKind::kAntiJoin:
      return Status::NotSupported("anti-joins cannot be rewritten");
    case PlanKind::kAggregate:
      return Status::NotSupported(
          "query rewriting does not support aggregation; use range-consistent"
          " aggregation instead");
  }
  return Status::Internal("unknown plan kind in rewriting");
}

// ---------------------------------------------------------------------------
// Koutris–Wijsen certain rewriting.
//
// For a self-join-free conjunctive query over tables that each carry at
// most one constraint — a primary-key FD covering every column — with an
// acyclic attack graph, the certain answers are first-order computable
// even under *narrowing* projection. The construction recurses on an
// unattacked atom F:
//
//   Sub      = certain answers of the remaining atoms (recursively), free
//              on the classes shared with F or with the answer
//   Good     = σ_local(F ⋈ Sub)             (candidate witnesses w)
//   AllPairs = Good ⋈_φ F                   (φ = the FD's violation
//              condition: w's conflict neighbors t — NOT mere key
//              equality, which under SQL NULLs also pairs tuples that
//              never conflict and would wrongly disqualify witnesses)
//   GoodPair = pairs where t itself extends to the same answer
//   Certain  = Good − π_w(AllPairs − GoodPair)
//
// The test "t is good" leaves out what φ and the witness's own filter
// already imply: φ makes t agree with w on every FD determinant column, so
// agreement there and local predicates over determinant columns only hold
// for t as they hold for w. At a level without a subquery the test is a
// predicate over the pair alone, so the same set is the anti-join
// Certain = Good ▷_{φ ∧ NotTrue(good)} F, which never materializes a pair;
// when nothing is left to test, every conflict neighbor is good and
// Certain = Good.
//
// Soundness follows from repair maximality: if a witness w is deleted from
// a repair, some conflict neighbor t of w is present (the only edges on a
// KW table are its FD's binary edges), and t being "good for the answer"
// re-derives the tuple. Completeness needs the attack graph acyclic
// (Koutris–Wijsen) *and* clique conflict blocks — the router checks
// TableConflictsAreCliques before trusting this plan.

namespace {

/// The column (name/type) representing a variable class, taken from the
/// class's first occurrence.
Column ClassColumn(const ConjunctiveShape& shape, size_t cls) {
  size_t pos = shape.class_rep[cls];
  for (const ConjunctiveAtom& atom : shape.atoms) {
    if (pos >= atom.offset && pos < atom.offset + atom.width) {
      return atom.scan->schema().column(pos - atom.offset);
    }
  }
  HIPPO_CHECK_MSG(false, "class representative outside every atom");
  return Column();
}

ExprPtr BoundRef(size_t idx, TypeId type) {
  return ColumnRefExpr::Bound(idx, type);
}

ExprPtr EqRefs(size_t l, TypeId lt, size_t r, TypeId rt) {
  auto eq = std::make_unique<ComparisonExpr>(CompareOp::kEq, BoundRef(l, lt),
                                             BoundRef(r, rt));
  eq->set_result_type(TypeId::kBool);
  return eq;
}

/// SQL IS NOT DISTINCT FROM: equal, or both NULL. Used for answer-value
/// agreement (an answer tuple may legitimately carry NULLs; plain `=`
/// would never let a neighbor confirm it).
ExprPtr IsNotDistinct(size_t l, TypeId lt, size_t r, TypeId rt) {
  ExprPtr eq = EqRefs(l, lt, r, rt);
  ExprPtr lnull = std::make_unique<IsNullExpr>(BoundRef(l, lt), false);
  lnull->set_result_type(TypeId::kBool);
  ExprPtr rnull = std::make_unique<IsNullExpr>(BoundRef(r, rt), false);
  rnull->set_result_type(TypeId::kBool);
  ExprPtr both = LogicalExpr::MakeAnd(std::move(lnull), std::move(rnull));
  both->set_result_type(TypeId::kBool);
  ExprPtr out = LogicalExpr::MakeOr(std::move(eq), std::move(both));
  out->set_result_type(TypeId::kBool);
  return out;
}

ExprPtr ShiftedClone(const Expr& e, int delta) {
  ExprPtr c = e.Clone();
  if (delta != 0) {
    VisitColumnRefs(c.get(),
                    [delta](ColumnRefExpr* ref) { ref->ShiftIndex(delta); });
  }
  return c;
}

/// Projection onto `positions` of the child schema, output schema `cols`.
PlanNodePtr ProjectPositions(PlanNodePtr child,
                             const std::vector<size_t>& positions,
                             Schema out_schema) {
  std::vector<ExprPtr> exprs;
  exprs.reserve(positions.size());
  for (size_t p : positions) {
    exprs.push_back(BoundRef(p, child->schema().column(p).type));
  }
  return std::make_unique<ProjectNode>(std::move(child), std::move(exprs),
                                       std::move(out_schema));
}

/// Per-query state shared by the recursion levels.
struct KwCtx {
  const ConjunctiveShape* shape = nullptr;
  std::vector<const DenialConstraint*> fd;       ///< per atom; null = no key FD
  std::vector<std::vector<size_t>> key_classes;  ///< per atom
  std::vector<std::vector<size_t>> var_classes;  ///< per atom, deduplicated
  /// Per atom: class -> first local column carrying it.
  std::vector<std::unordered_map<size_t, size_t>> local_rep;
};

/// The conjuncts of "neighbor t is good for the answer" over F's own
/// columns, with the witness's F-columns at 0 and t's at `t_off`: F's local
/// predicates on t, and t's agreement with the witness on each answer class
/// F carries (answer classes outside F are the caller's). Conjuncts that φ
/// and the witness's own filter already imply are left out (see the comment
/// above). The test is on determinant columns, not on variable classes: an
/// intra-atom `a = b` puts a dependent column into a key class, yet φ does
/// not make t agree with w there.
std::vector<ExprPtr> KwNeighborGoodness(
    const KwCtx& ctx, size_t f, const std::vector<size_t>& answer_classes,
    size_t t_off) {
  const Schema& schema = ctx.shape->atoms[f].scan->schema();
  const std::vector<size_t>& key = ctx.fd[f]->fd_info()->lhs;
  auto is_key = [&key](size_t col) {
    return std::find(key.begin(), key.end(), col) != key.end();
  };

  std::vector<ExprPtr> open;
  for (const ExprPtr& e : ctx.shape->atom_local[f]) {
    std::vector<int> cols = CollectColumnIndexes(*e);
    bool on_key = std::all_of(cols.begin(), cols.end(), [&](int c) {
      return is_key(static_cast<size_t>(c));
    });
    if (!on_key) open.push_back(ShiftedClone(*e, static_cast<int>(t_off)));
  }
  for (size_t cls : answer_classes) {
    auto it = ctx.local_rep[f].find(cls);
    if (it == ctx.local_rep[f].end() || is_key(it->second)) continue;
    size_t col = it->second;
    TypeId t = schema.column(col).type;
    open.push_back(IsNotDistinct(col, t, t_off + col, t));
  }
  return open;
}

Result<PlanNodePtr> KwBuild(const KwCtx& ctx,
                            const std::vector<size_t>& remaining,
                            const std::vector<size_t>& answer_classes) {
  const ConjunctiveShape& shape = *ctx.shape;

  // Re-derive the attack graph at this level: the free classes grew, so
  // attacks only disappear; an unattacked atom exists whenever the
  // top-level graph was acyclic.
  std::vector<std::vector<size_t>> keys, vars;
  for (size_t a : remaining) {
    keys.push_back(ctx.key_classes[a]);
    vars.push_back(ctx.var_classes[a]);
  }
  AttackGraph graph =
      BuildAttackGraph(keys, vars, answer_classes, shape.num_classes);
  std::optional<size_t> pivot = graph.UnattackedAtom();
  if (!pivot.has_value()) {
    return Status::NotSupported(
        "attack graph is cyclic: certain answers for this query are "
        "coNP-complete (Koutris-Wijsen)");
  }
  size_t f = remaining[*pivot];
  const ConjunctiveAtom& atom = shape.atoms[f];
  const Schema& scan_schema = atom.scan->schema();
  size_t wf = atom.width;
  std::vector<size_t> rest;
  for (size_t a : remaining) {
    if (a != f) rest.push_back(a);
  }

  // Recurse over the remaining atoms, free on the classes they share with
  // the answer or with F.
  PlanNodePtr sub, sub2;
  std::vector<size_t> sub_classes;
  if (!rest.empty()) {
    std::unordered_set<size_t> rest_vars;
    for (size_t a : rest) {
      rest_vars.insert(ctx.var_classes[a].begin(), ctx.var_classes[a].end());
    }
    for (size_t c : answer_classes) {
      if (rest_vars.count(c) != 0) sub_classes.push_back(c);
    }
    for (size_t c : ctx.var_classes[f]) {
      if (rest_vars.count(c) != 0 &&
          std::find(sub_classes.begin(), sub_classes.end(), c) ==
              sub_classes.end()) {
        sub_classes.push_back(c);
      }
    }
    if (sub_classes.empty()) {
      // A subquery sharing nothing with F or the answer is a Boolean
      // certainty question; its certain answers can be disjunctive across
      // repairs, which no single variable binding captures.
      return Status::NotSupported(
          "disconnected Boolean subquery is outside the implemented "
          "Koutris-Wijsen class");
    }
    HIPPO_ASSIGN_OR_RETURN(sub, KwBuild(ctx, rest, sub_classes));
    sub2 = sub->Clone();
  }
  size_t ws = sub_classes.size();
  size_t w = wf + ws;
  auto sub_idx = [&](size_t cls) -> size_t {
    auto it = std::find(sub_classes.begin(), sub_classes.end(), cls);
    HIPPO_CHECK_MSG(it != sub_classes.end(), "class not in subquery output");
    return static_cast<size_t>(it - sub_classes.begin());
  };
  auto sub_type = [&](size_t cls) { return ClassColumn(shape, cls).type; };

  // Good witnesses: F ⋈ Sub with F's local predicates.
  PlanNodePtr good = atom.scan->Clone();
  if (sub != nullptr) {
    std::vector<ExprPtr> eqs;
    for (size_t c : sub_classes) {
      auto it = ctx.local_rep[f].find(c);
      if (it == ctx.local_rep[f].end()) continue;
      eqs.push_back(EqRefs(it->second, scan_schema.column(it->second).type,
                           wf + sub_idx(c), sub_type(c)));
    }
    good = std::make_unique<JoinNode>(std::move(good), std::move(sub),
                                      AndAll(std::move(eqs)));
  }
  if (!shape.atom_local[f].empty()) {
    std::vector<ExprPtr> locals;
    for (const ExprPtr& e : shape.atom_local[f]) locals.push_back(e->Clone());
    good = std::make_unique<FilterNode>(std::move(good),
                                        AndAll(std::move(locals)));
  }

  // Position of an answer class within `good`.
  auto rep_in_good = [&](size_t cls) -> size_t {
    auto it = ctx.local_rep[f].find(cls);
    if (it != ctx.local_rep[f].end()) return it->second;
    return wf + sub_idx(cls);
  };

  PlanNodePtr certain;
  if (ctx.fd[f] == nullptr) {
    // No constraint on F's table: every F-tuple is in every repair.
    certain = std::move(good);
  } else if (sub2 == nullptr) {
    // Lone atom: Certain = Good ▷_{φ ∧ NotTrue(good)} F, with φ bound over
    // the witness at 0 and the neighbor at wf, or Good when φ implies
    // every conjunct of `good`.
    std::vector<ExprPtr> open =
        KwNeighborGoodness(ctx, f, answer_classes, wf);
    certain = std::move(good);
    if (!open.empty()) {
      const Expr* phi = ctx.fd[f]->condition();
      HIPPO_CHECK_MSG(phi != nullptr, "FD constraint without a condition");
      std::vector<ExprPtr> cond;
      cond.push_back(phi->Clone());
      cond.push_back(NotTrue(AndAll(std::move(open))));
      certain = std::make_unique<AntiJoinNode>(
          std::move(certain), atom.scan->Clone(), AndAll(std::move(cond)));
    }
  } else {
    const Expr* phi = ctx.fd[f]->condition();
    HIPPO_CHECK_MSG(phi != nullptr, "FD constraint without a condition");
    Schema good_schema = good->schema();

    // AllPairs = Good ⋈_φ F: each witness with its conflict neighbors.
    // φ is bound over two copies of F's schema at offsets 0 and wf; the
    // witness's F-columns already sit at 0, the neighbor lands after the
    // sub columns, so only the second copy shifts.
    ExprPtr phi_cond = phi->Clone();
    VisitColumnRefs(phi_cond.get(), [&](ColumnRefExpr* ref) {
      if (ref->index() >= static_cast<int>(wf)) {
        ref->ShiftIndex(static_cast<int>(ws));
      }
    });
    PlanNodePtr all_pairs = std::make_unique<JoinNode>(
        good->Clone(), atom.scan->Clone(), std::move(phi_cond));
    size_t t_off = w;

    // A neighbor t is good for the answer when it satisfies F's local
    // predicates, agrees with the witness on every answer class, and joins
    // some certain sub-answer of its own.
    std::vector<ExprPtr> conds =
        KwNeighborGoodness(ctx, f, answer_classes, t_off);
    for (size_t cls : answer_classes) {
      if (ctx.local_rep[f].count(cls) != 0) continue;
      conds.push_back(IsNotDistinct(wf + sub_idx(cls), sub_type(cls),
                                    t_off + wf + sub_idx(cls),
                                    sub_type(cls)));
    }
    for (size_t c : sub_classes) {
      auto it = ctx.local_rep[f].find(c);
      if (it == ctx.local_rep[f].end()) continue;
      conds.push_back(EqRefs(t_off + it->second,
                             scan_schema.column(it->second).type,
                             t_off + wf + sub_idx(c), sub_type(c)));
    }
    PlanNodePtr exist = std::make_unique<JoinNode>(
        all_pairs->Clone(), std::move(sub2), AndAll(std::move(conds)));
    std::vector<size_t> first(w + wf);
    for (size_t i = 0; i < first.size(); ++i) first[i] = i;
    PlanNodePtr good_pairs =
        ProjectPositions(std::move(exist), first, all_pairs->schema());
    PlanNodePtr bad = std::make_unique<SetOpNode>(
        PlanKind::kDifference, std::move(all_pairs), std::move(good_pairs));
    std::vector<size_t> witness_cols(w);
    for (size_t i = 0; i < w; ++i) witness_cols[i] = i;
    PlanNodePtr bad_w =
        ProjectPositions(std::move(bad), witness_cols, good_schema);
    certain = std::make_unique<SetOpNode>(PlanKind::kDifference,
                                          std::move(good), std::move(bad_w));
  }

  std::vector<size_t> out_positions;
  Schema out_schema;
  for (size_t cls : answer_classes) {
    out_positions.push_back(rep_in_good(cls));
    out_schema.AddColumn(ClassColumn(shape, cls));
  }
  return ProjectPositions(std::move(certain), out_positions,
                          std::move(out_schema));
}

}  // namespace

Result<PlanNodePtr> QueryRewriter::KwRewrite(const PlanNode& plan,
                                             RewriteInfo* info) {
  HIPPO_ASSIGN_OR_RETURN(ConjunctiveShape shape, DecomposeConjunctive(plan));
  for (size_t i = 0; i < shape.atoms.size(); ++i) {
    for (size_t j = i + 1; j < shape.atoms.size(); ++j) {
      if (shape.atoms[i].table_id == shape.atoms[j].table_id) {
        return Status::NotSupported(
            "self-join over table " + shape.atoms[i].table_name +
            "; outside the Koutris-Wijsen class");
      }
    }
  }

  KwCtx ctx;
  ctx.shape = &shape;
  std::vector<uint32_t> fd_tables;
  for (size_t a = 0; a < shape.atoms.size(); ++a) {
    const ConjunctiveAtom& atom = shape.atoms[a];
    HIPPO_ASSIGN_OR_RETURN(
        std::vector<size_t> key_local,
        KwKeyColumns(atom.table_id, catalog_, constraints_, foreign_keys_));
    const DenialConstraint* fd = nullptr;
    for (const DenialConstraint& dc : constraints_) {
      for (const ConstraintAtom& ca : dc.atoms()) {
        if (ca.table_id == atom.table_id) { fd = &dc; break; }
      }
      if (fd != nullptr) break;
    }
    ctx.fd.push_back(fd);
    if (fd != nullptr) fd_tables.push_back(atom.table_id);

    std::vector<size_t> kc, vc;
    for (size_t k : key_local) {
      size_t cls = shape.class_of[atom.offset + k];
      if (std::find(kc.begin(), kc.end(), cls) == kc.end()) kc.push_back(cls);
    }
    std::unordered_map<size_t, size_t> rep;
    for (size_t c = 0; c < atom.width; ++c) {
      size_t cls = shape.class_of[atom.offset + c];
      if (rep.emplace(cls, c).second) vc.push_back(cls);
    }
    ctx.key_classes.push_back(std::move(kc));
    ctx.var_classes.push_back(std::move(vc));
    ctx.local_rep.push_back(std::move(rep));
  }

  std::vector<size_t> free_classes = shape.FreeClasses();
  std::vector<size_t> all_atoms(shape.atoms.size());
  for (size_t i = 0; i < all_atoms.size(); ++i) all_atoms[i] = i;
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr certain,
                         KwBuild(ctx, all_atoms, free_classes));

  // Map the per-class output back onto the original projection (order,
  // duplicates, names) and re-apply a root ORDER BY.
  std::vector<size_t> out_positions;
  for (size_t pos : shape.project_cols) {
    size_t cls = shape.class_of[pos];
    auto it = std::find(free_classes.begin(), free_classes.end(), cls);
    HIPPO_CHECK_MSG(it != free_classes.end(), "projected class not free");
    out_positions.push_back(static_cast<size_t>(it - free_classes.begin()));
  }
  PlanNodePtr out = ProjectPositions(std::move(certain), out_positions,
                                     shape.project->schema());
  if (shape.root_sort != nullptr) {
    std::vector<SortNode::Key> keys;
    for (const SortNode::Key& k : shape.root_sort->keys()) {
      keys.push_back(SortNode::Key{k.expr->Clone(), k.ascending});
    }
    out = std::make_unique<SortNode>(std::move(out), std::move(keys));
  }
  if (info != nullptr) {
    info->method = RewriteMethod::kKw;
    info->kw_fd_tables = std::move(fd_tables);
  }
  return out;
}

Result<PlanNodePtr> QueryRewriter::Rewrite(const PlanNode& plan,
                                           RewriteInfo* info) {
  // Both methods quantify over single partner atoms, which is sound and
  // complete only for universal *binary* constraints: a residue against a
  // 3+-atom constraint would need the remaining atoms to be jointly
  // realizable in one repair, which single anti-joins cannot express. The
  // check is scoped to constraints that can actually reach the plan — an
  // atom on a scanned table, or on a partner table the residues quantify
  // over (one hop through a binary constraint); a wider constraint
  // elsewhere in the schema is irrelevant to this query.
  std::unordered_set<uint32_t> relevant = CollectPlanTables(plan);
  for (const DenialConstraint& dc : constraints_) {
    if (!dc.IsBinary()) continue;
    bool touches = false;
    for (const ConstraintAtom& atom : dc.atoms()) {
      if (relevant.count(atom.table_id) != 0) { touches = true; break; }
    }
    if (touches) {
      for (const ConstraintAtom& atom : dc.atoms()) {
        relevant.insert(atom.table_id);
      }
    }
  }
  for (const DenialConstraint& dc : constraints_) {
    if (dc.arity() <= 2) continue;
    for (const ConstraintAtom& atom : dc.atoms()) {
      if (relevant.count(atom.table_id) != 0) {
        return Status::NotSupported(
            "query rewriting supports universal binary constraints only; "
            "constraint " + dc.name() + " has " +
            std::to_string(dc.arity()) + " atoms");
      }
    }
  }

  Result<PlanNodePtr> abc = RewriteNode(plan);
  if (abc.ok()) {
    if (info != nullptr) {
      info->method = RewriteMethod::kAbc;
      info->kw_fd_tables.clear();
    }
    return abc;
  }
  if (abc.status().code() != StatusCode::kNotSupported) return abc;

  Result<PlanNodePtr> kw = KwRewrite(plan, info);
  if (kw.ok() || kw.status().code() != StatusCode::kNotSupported) return kw;
  return Status::NotSupported(abc.status().message() +
                              "; Koutris-Wijsen: " + kw.status().message());
}

}  // namespace hippo::rewriting
