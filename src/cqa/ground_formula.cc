#include "cqa/ground_formula.h"

#include "exec/batch_eval.h"

namespace hippo::cqa {

GroundFormula GroundFormula::Not(GroundFormula a) {
  if (a.IsConst()) return Constant(!a.const_value);
  GroundFormula f;
  f.kind = Kind::kNot;
  f.children.push_back(std::move(a));
  return f;
}

GroundFormula GroundFormula::And(GroundFormula a, GroundFormula b) {
  if (a.IsConst()) return a.const_value ? std::move(b) : False();
  if (b.IsConst()) return b.const_value ? std::move(a) : False();
  GroundFormula f;
  f.kind = Kind::kAnd;
  f.children.push_back(std::move(a));
  f.children.push_back(std::move(b));
  return f;
}

GroundFormula GroundFormula::Or(GroundFormula a, GroundFormula b) {
  if (a.IsConst()) return a.const_value ? True() : std::move(b);
  if (b.IsConst()) return b.const_value ? True() : std::move(a);
  GroundFormula f;
  f.kind = Kind::kOr;
  f.children.push_back(std::move(a));
  f.children.push_back(std::move(b));
  return f;
}

bool GroundFormula::Eval(const std::function<bool(RowId)>& truth) const {
  switch (kind) {
    case Kind::kConst:
      return const_value;
    case Kind::kLit:
      return truth(fact);
    case Kind::kNot:
      return !children[0].Eval(truth);
    case Kind::kAnd:
      for (const GroundFormula& c : children) {
        if (!c.Eval(truth)) return false;
      }
      return true;
    case Kind::kOr:
      for (const GroundFormula& c : children) {
        if (c.Eval(truth)) return true;
      }
      return false;
  }
  return false;
}

void GroundFormula::CollectFacts(std::vector<RowId>* out) const {
  switch (kind) {
    case Kind::kConst:
      return;
    case Kind::kLit:
      out->push_back(fact);
      return;
    default:
      for (const GroundFormula& c : children) c.CollectFacts(out);
  }
}

std::string GroundFormula::ToString() const {
  switch (kind) {
    case Kind::kConst:
      return const_value ? "TRUE" : "FALSE";
    case Kind::kLit:
      return fact.ToString();
    case Kind::kNot:
      return "!" + children[0].ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      const char* sep = kind == Kind::kAnd ? " & " : " | ";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += children[i].ToString();
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

GroundProgram::GroundProgram(const PlanNode& plan) {
  const PlanNode* root = &plan;
  if (root->kind() == PlanKind::kSort) root = &root->child(0);
  std::vector<uint32_t> cols(root->schema().NumColumns());
  for (uint32_t c = 0; c < cols.size(); ++c) cols[c] = c;
  Compile(*root, std::move(cols));
}

size_t GroundProgram::Compile(const PlanNode& node,
                              std::vector<uint32_t> cols) {
  Node n;
  n.kind = node.kind();
  switch (node.kind()) {
    case PlanKind::kScan:
      n.table_id = static_cast<const ScanNode&>(node).table_id();
      break;
    case PlanKind::kFilter:
      n.predicate = &static_cast<const FilterNode&>(node).predicate();
      n.child[0] = Compile(node.child(0), cols);
      break;
    case PlanKind::kProject: {
      // Invert the safe projection: each child column takes the candidate
      // column of the first output reading it; later readers must agree.
      const auto& p = static_cast<const ProjectNode&>(node);
      const size_t child_width = node.child(0).schema().NumColumns();
      std::vector<uint32_t> inverse(child_width);
      std::vector<bool> assigned(child_width, false);
      for (size_t i = 0; i < p.NumExprs(); ++i) {
        HIPPO_CHECK_MSG(p.expr(i).kind() == ExprKind::kColumnRef,
                        "grounding requires a safe projection");
        size_t idx = static_cast<size_t>(
            static_cast<const ColumnRefExpr&>(p.expr(i)).index());
        if (assigned[idx]) {
          n.agree.emplace_back(inverse[idx], cols[i]);
        } else {
          inverse[idx] = cols[i];
          assigned[idx] = true;
        }
      }
      for (bool a : assigned) {
        HIPPO_CHECK_MSG(a, "grounding requires a safe projection");
      }
      n.child[0] = Compile(node.child(0), std::move(inverse));
      break;
    }
    case PlanKind::kProduct:
    case PlanKind::kJoin: {
      if (node.kind() == PlanKind::kJoin) {
        n.predicate = &static_cast<const JoinNode&>(node).condition();
      }
      const size_t left_width = node.child(0).schema().NumColumns();
      n.child[0] = Compile(node.child(0), std::vector<uint32_t>(
                                              cols.begin(),
                                              cols.begin() + left_width));
      n.child[1] = Compile(node.child(1), std::vector<uint32_t>(
                                              cols.begin() + left_width,
                                              cols.end()));
      break;
    }
    case PlanKind::kUnion:
    case PlanKind::kDifference:
    case PlanKind::kIntersect:
      n.child[0] = Compile(node.child(0), cols);
      n.child[1] = Compile(node.child(1), cols);
      break;
    case PlanKind::kSort:
    case PlanKind::kAntiJoin:
    case PlanKind::kAggregate:
      HIPPO_CHECK_MSG(false, "unsupported plan node in grounding");
  }
  n.cols = std::move(cols);
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

namespace {

/// GroundFormula's constant folding over GroundSummary: tracks exactly
/// what the folded formula would be — constant or not, its value with all
/// facts present, and whether a fact it kept is conflicting (never, with
/// no graph to ask).
struct SummaryAlgebra {
  using F = GroundSummary;
  const ConflictHypergraph* graph;

  static F Const(bool v) { return F{true, v, false}; }
  F Lit(RowId fact) const {
    return F{false, true, graph != nullptr && graph->IsConflicting(fact)};
  }
  static bool Is(const F& f, bool v) { return f.is_const && f.value == v; }
  static F Not(F a) {
    a.value = !a.value;
    return a;
  }
  static F And(F a, F b) {
    if (a.is_const) return a.value ? b : Const(false);
    if (b.is_const) return b.value ? a : Const(false);
    return F{false, a.value && b.value, a.conflicting || b.conflicting};
  }
  static F Or(F a, F b) {
    if (a.is_const) return a.value ? Const(true) : b;
    if (b.is_const) return b.value ? Const(true) : a;
    return F{false, a.value || b.value, a.conflicting || b.conflicting};
  }
};

struct FormulaAlgebra {
  using F = GroundFormula;
  static F Const(bool v) { return GroundFormula::Constant(v); }
  static F Lit(RowId fact) { return GroundFormula::Lit(fact); }
  static bool Is(const F& f, bool v) {
    return f.IsConst() && f.const_value == v;
  }
  static F Not(F a) { return GroundFormula::Not(std::move(a)); }
  static F And(F a, F b) {
    return GroundFormula::And(std::move(a), std::move(b));
  }
  static F Or(F a, F b) {
    return GroundFormula::Or(std::move(a), std::move(b));
  }
};

}  // namespace

template <typename Algebra, typename Facts>
typename Algebra::F Grounder::Walk(size_t node, const ColumnBatch& batch,
                                   uint32_t phys, const Algebra& algebra,
                                   Facts& facts) const {
  using F = typename Algebra::F;
  const GroundProgram::Node& n = program_.nodes_[node];
  auto holds = [&](const Expr& pred) {
    auto at = [&](size_t c) { return batch.col(n.cols[c]).ValueAt(phys); };
    return exec::EvalPredicateOver(pred, at);
  };
  auto walk = [&](size_t child) {
    return Walk(n.child[child], batch, phys, algebra, facts);
  };
  switch (n.kind) {
    case PlanKind::kScan: {
      std::optional<RowId> rid = facts(n);
      return rid.has_value() ? algebra.Lit(*rid) : Algebra::Const(false);
    }
    case PlanKind::kFilter:
      if (!holds(*n.predicate)) return Algebra::Const(false);
      return walk(0);
    case PlanKind::kProject:
      for (const auto& [a, b] : n.agree) {
        if (!batch.col(a).EqualsAt(phys, batch.col(b), phys)) {
          return Algebra::Const(false);
        }
      }
      return walk(0);
    case PlanKind::kUnion: {
      F left = walk(0);
      if (Algebra::Is(left, true)) return left;
      return Algebra::Or(std::move(left), walk(1));
    }
    case PlanKind::kJoin:
      if (!holds(*n.predicate)) return Algebra::Const(false);
      [[fallthrough]];
    default: {  // product, join, difference, intersection
      F left = walk(0);
      if (Algebra::Is(left, false)) return left;
      F right = walk(1);
      if (n.kind == PlanKind::kDifference) {
        right = Algebra::Not(std::move(right));
      }
      return Algebra::And(std::move(left), std::move(right));
    }
  }
}

Result<GroundSummary> Grounder::Probe(const ColumnBatch& batch, size_t row,
                                      const ConflictHypergraph* graph) {
  facts_.clear();
  Status error;
  auto lookup = [&](const GroundProgram::Node& n) -> std::optional<RowId> {
    Result<std::optional<RowId>> rid =
        membership_->Lookup(n.table_id, batch, row, n.cols);
    if (!rid.ok()) {
      error = rid.status();
      facts_.emplace_back();
      return std::nullopt;
    }
    facts_.push_back(rid.value());
    return rid.value();
  };
  GroundSummary summary =
      Walk(program_.nodes_.size() - 1, batch, batch.Physical(row),
           SummaryAlgebra{graph}, lookup);
  if (!error.ok()) return error;
  return summary;
}

GroundFormula Grounder::Formula(const ColumnBatch& batch, size_t row) const {
  size_t next = 0;
  auto replay = [&](const GroundProgram::Node&) { return facts_[next++]; };
  return Walk(program_.nodes_.size() - 1, batch, batch.Physical(row),
              FormulaAlgebra{}, replay);
}

}  // namespace hippo::cqa
