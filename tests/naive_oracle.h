// Naive reference evaluators for the differential tests.
//
// NaiveExecute evaluates a bound plan the slowest obvious way: nested loops
// over the live rows of each Table, EvalExpr / EvalPredicate on whole rows,
// and linear-scan first-occurrence set operations. No hashing, no
// partitioning, no columnar views, no tracing — so it shares nothing with
// the executor's kernels except the scalar expression evaluator and the
// aggregate kernel (the one implementation of aggregate semantics).
//
// NaiveDetect enumerates every assignment of live rows to the atoms of
// every denial constraint, and every child row of every foreign key.
//
// NaiveApplyDml runs a DELETE or UPDATE by testing its WHERE on every live
// row — the scan the row-index probe of Database's DML must agree with.
//
// Both are quadratic or worse and meant only for tiny instances.
#pragma once

#include <algorithm>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "expr/binder.h"
#include "expr/evaluator.h"
#include "hypergraph/hypergraph.h"
#include "plan/logical_plan.h"
#include "sql/parser.h"

namespace hippo {

namespace naive_internal {

inline bool Contains(const std::vector<Row>& rows, const Row& row) {
  for (const Row& r : rows) {
    if (r == row) return true;
  }
  return false;
}

/// First occurrence of each distinct row, in input order.
inline std::vector<Row> Distinct(const std::vector<Row>& rows) {
  std::vector<Row> out;
  for (const Row& r : rows) {
    if (!Contains(out, r)) out.push_back(r);
  }
  return out;
}

inline Row Concat(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace naive_internal

/// Evaluates `plan` over the live rows of `catalog` visible under `mask`
/// (nullptr = every live row). The executor must return exactly these rows
/// in exactly this order.
inline Result<std::vector<Row>> NaiveExecute(const PlanNode& plan,
                                             const Catalog& catalog,
                                             const RowMask* mask) {
  using naive_internal::Concat;
  using naive_internal::Contains;
  using naive_internal::Distinct;
  std::vector<std::vector<Row>> in;
  for (size_t c = 0; c < plan.NumChildren(); ++c) {
    HIPPO_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           NaiveExecute(plan.child(c), catalog, mask));
    in.push_back(std::move(rows));
  }
  std::vector<Row> out;
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(plan);
      const Table& table = catalog.table(scan.table_id());
      for (uint32_t i = 0; i < table.NumRows(); ++i) {
        if (!table.IsLive(i)) continue;
        if (mask != nullptr && !mask->Allows(RowId{table.id(), i})) continue;
        Row row = table.row(i);
        if (scan.emit_rowid()) row.push_back(Value::Int(i));
        out.push_back(std::move(row));
      }
      return out;
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(plan);
      for (const Row& r : in[0]) {
        if (EvalPredicate(filter.predicate(), r)) out.push_back(r);
      }
      return out;
    }
    case PlanKind::kProject: {
      const auto& proj = static_cast<const ProjectNode&>(plan);
      for (const Row& r : in[0]) {
        Row mapped;
        for (size_t e = 0; e < proj.NumExprs(); ++e) {
          mapped.push_back(EvalExpr(proj.expr(e), r));
        }
        out.push_back(std::move(mapped));
      }
      return Distinct(out);
    }
    case PlanKind::kProduct:
    case PlanKind::kJoin: {
      const Expr* cond =
          plan.kind() == PlanKind::kJoin
              ? &static_cast<const JoinNode&>(plan).condition()
              : nullptr;
      for (const Row& l : in[0]) {
        for (const Row& r : in[1]) {
          Row joined = Concat(l, r);
          if (cond == nullptr || EvalPredicate(*cond, joined)) {
            out.push_back(std::move(joined));
          }
        }
      }
      return out;
    }
    case PlanKind::kAntiJoin: {
      const Expr& cond = static_cast<const AntiJoinNode&>(plan).condition();
      for (const Row& l : in[0]) {
        bool matched = false;
        for (const Row& r : in[1]) {
          if (EvalPredicate(cond, Concat(l, r))) {
            matched = true;
            break;
          }
        }
        if (!matched) out.push_back(l);
      }
      return out;
    }
    case PlanKind::kUnion:
      out = in[0];
      out.insert(out.end(), in[1].begin(), in[1].end());
      return Distinct(out);
    case PlanKind::kDifference:
      for (const Row& l : in[0]) {
        if (!Contains(in[1], l)) out.push_back(l);
      }
      return Distinct(out);
    case PlanKind::kIntersect:
      for (const Row& l : in[0]) {
        if (Contains(in[1], l)) out.push_back(l);
      }
      return Distinct(out);
    case PlanKind::kAggregate:
      return exec::AggregateRows(static_cast<const AggregateNode&>(plan),
                                 in[0]);
    case PlanKind::kSort: {
      const auto& sort = static_cast<const SortNode&>(plan);
      out = in[0];
      std::stable_sort(out.begin(), out.end(),
                       [&sort](const Row& a, const Row& b) {
                         for (const SortNode::Key& k : sort.keys()) {
                           int c = EvalExpr(*k.expr, a).Compare(
                               EvalExpr(*k.expr, b));
                           if (c != 0) return k.ascending ? c < 0 : c > 0;
                         }
                         return false;
                       });
      return out;
    }
  }
  return Status::Internal("unknown plan kind in the naive evaluator");
}

/// Naive conflict detection: every assignment of live rows to the atoms
/// of every denial constraint (with repetition — a tuple may satisfy a
/// multi-atom constraint with itself; AddEdge collapses {t, t} to a unary
/// edge exactly like the executor's self-join does) and every child row of
/// every foreign key.
inline ConflictHypergraph NaiveDetect(
    const Catalog& catalog, const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys) {
  ConflictHypergraph graph;
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const DenialConstraint& dc = constraints[ci];
    // Odometer over one live-row index per atom.
    std::vector<std::vector<uint32_t>> live(dc.arity());
    for (size_t a = 0; a < dc.arity(); ++a) {
      const Table& t = catalog.table(dc.atoms()[a].table_id);
      for (uint32_t i = 0; i < t.NumRows(); ++i) {
        if (t.IsLive(i)) live[a].push_back(i);
      }
    }
    std::vector<size_t> pick(dc.arity(), 0);
    bool exhausted = false;
    for (size_t a = 0; a < dc.arity(); ++a) {
      if (live[a].empty()) exhausted = true;
    }
    while (!exhausted) {
      Row combined;
      std::vector<RowId> edge;
      for (size_t a = 0; a < dc.arity(); ++a) {
        const Table& t = catalog.table(dc.atoms()[a].table_id);
        const Row& r = t.row(live[a][pick[a]]);
        combined.insert(combined.end(), r.begin(), r.end());
        edge.push_back(RowId{dc.atoms()[a].table_id, live[a][pick[a]]});
      }
      if (dc.condition() == nullptr ||
          EvalPredicate(*dc.condition(), combined)) {
        graph.AddEdge(std::move(edge), static_cast<uint32_t>(ci));
      }
      size_t a = 0;
      for (; a < dc.arity(); ++a) {
        if (++pick[a] < live[a].size()) break;
        pick[a] = 0;
      }
      if (a == dc.arity()) exhausted = true;
    }
  }
  for (size_t fi = 0; fi < foreign_keys.size(); ++fi) {
    const ForeignKeyConstraint& fk = foreign_keys[fi];
    const Table& child = catalog.table(fk.child_table());
    const Table& parent = catalog.table(fk.parent_table());
    for (uint32_t c = 0; c < child.NumRows(); ++c) {
      if (!child.IsLive(c)) continue;
      // SQL equality: a NULL on either side never matches, so NULL-keyed
      // children are orphans regardless of the parent relation.
      bool has_parent = false;
      for (uint32_t p = 0; p < parent.NumRows() && !has_parent; ++p) {
        if (!parent.IsLive(p)) continue;
        bool match = true;
        for (size_t i = 0; i < fk.child_columns().size(); ++i) {
          const Value& cv = child.row(c)[fk.child_columns()[i]];
          const Value& pv = parent.row(p)[fk.parent_columns()[i]];
          if (cv.is_null() || pv.is_null() || !(cv == pv)) {
            match = false;
            break;
          }
        }
        has_parent = match;
      }
      if (!has_parent) {
        graph.AddEdge({RowId{fk.child_table(), c}},
                      static_cast<uint32_t>(constraints.size() + fi));
      }
    }
  }
  return graph;
}

/// Applies a script of DELETE and UPDATE statements to `catalog` by
/// scanning: each statement's WHERE is tested on every live row, the
/// matches are tombstoned, and an UPDATE then inserts its replacement rows,
/// computed from the pre-update image. Binding and set semantics are
/// Database's; only the way rows are found differs. No hypergraph is
/// kept — compare against NaiveDetect over the result.
inline Status NaiveApplyDml(Catalog* catalog, const std::string& script) {
  HIPPO_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts,
                         sql::ParseScript(script));
  for (sql::Statement& stmt : stmts) {
    const auto* del = std::get_if<sql::DeleteStmt>(&stmt.node);
    const auto* upd = std::get_if<sql::UpdateStmt>(&stmt.node);
    if (del == nullptr && upd == nullptr) {
      return Status::InvalidArgument("NaiveApplyDml runs DELETE and UPDATE");
    }
    HIPPO_ASSIGN_OR_RETURN(Table * table,
                           catalog->GetTable(del ? del->table : upd->table));
    const ExprPtr& where_sql = del ? del->where : upd->where;
    Schema scope = table->schema().WithQualifier(table->name());
    ExprBinder binder(scope);
    ExprPtr where;
    if (where_sql != nullptr) {
      where = where_sql->Clone();
      HIPPO_RETURN_NOT_OK(binder.BindPredicate(where.get()));
    }
    std::vector<std::pair<size_t, ExprPtr>> sets;
    if (upd != nullptr) {
      for (const auto& [col, value] : upd->assignments) {
        HIPPO_ASSIGN_OR_RETURN(size_t idx, scope.ResolveColumn("", col));
        ExprPtr bound = value->Clone();
        HIPPO_RETURN_NOT_OK(binder.Bind(bound.get()));
        sets.emplace_back(idx, std::move(bound));
      }
    }
    std::vector<uint32_t> matched;
    std::vector<Row> replacements;
    for (uint32_t i = 0; i < table->NumRows(); ++i) {
      if (!table->IsLive(i)) continue;
      const Row& row = table->row(i);
      if (where != nullptr && !EvalPredicate(*where, row)) continue;
      matched.push_back(i);
      Row updated = row;
      for (const auto& [idx, value] : sets) {
        updated[idx] = EvalExpr(*value, row);
      }
      replacements.push_back(std::move(updated));
    }
    for (uint32_t i : matched) table->Delete(i);
    if (upd == nullptr) continue;
    for (const Row& r : replacements) {
      HIPPO_RETURN_NOT_OK(table->Insert(r).status());
    }
  }
  return Status::OK();
}

}  // namespace hippo
