#include "cqa/knowledge.h"

#include "exec/executor.h"
#include "expr/evaluator.h"

namespace hippo::cqa {

namespace {

Status CheckArity(const Table& table, const std::vector<uint32_t>& cols) {
  if (cols.size() != table.schema().NumColumns()) {
    return Status::Internal("membership probe arity mismatch");
  }
  return Status::OK();
}

}  // namespace

Result<std::optional<RowId>> QueryMembershipProvider::Lookup(
    uint32_t table_id, const ColumnBatch& batch, size_t row,
    const std::vector<uint32_t>& cols) {
  ++lookups_;
  const Table& table = catalog_.table(table_id);
  HIPPO_RETURN_NOT_OK(CheckArity(table, cols));
  Row values;
  values.reserve(cols.size());
  for (uint32_t c : cols) values.push_back(batch.ValueAt(row, c));
  // Build σ_{c1=v1 ∧ ...}(R) with a rowid-emitting scan and execute it —
  // a genuine query through the engine, as the base system would issue.
  PlanNodePtr scan = ScanNode::Make(table.id(), table.name(), table.name(),
                                    table.schema(), /*emit_rowid=*/true);
  std::vector<ExprPtr> conjuncts;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) {
      conjuncts.push_back(std::make_unique<IsNullExpr>(
          ColumnRefExpr::Bound(i, table.schema().column(i).type), false));
      conjuncts.back()->set_result_type(TypeId::kBool);
      continue;
    }
    conjuncts.push_back(std::make_unique<ComparisonExpr>(
        CompareOp::kEq,
        ColumnRefExpr::Bound(i, table.schema().column(i).type),
        std::make_unique<LiteralExpr>(values[i])));
    conjuncts.back()->set_result_type(TypeId::kBool);
  }
  PlanNodePtr probe = std::make_unique<FilterNode>(
      std::move(scan), AndAll(std::move(conjuncts)));
  ExecContext ctx{&catalog_, nullptr};
  HIPPO_ASSIGN_OR_RETURN(ResultSet rs, Execute(*probe, ctx));
  // NULL values: the IS NULL filter above matches them, but a row whose
  // non-null values match under `=` with nulls elsewhere must compare
  // structurally; re-verify to keep set identity exact.
  for (const Row& r : rs.rows) {
    Row stored(r.begin(), r.end() - 1);
    if (stored == values) {
      return std::optional<RowId>(
          RowId{table_id, static_cast<uint32_t>(r.back().AsInt())});
    }
  }
  return std::optional<RowId>(std::nullopt);
}

Result<std::optional<RowId>> IndexMembershipProvider::Lookup(
    uint32_t table_id, const ColumnBatch& batch, size_t row,
    const std::vector<uint32_t>& cols) {
  ++lookups_;
  const Table& table = catalog_.table(table_id);
  HIPPO_RETURN_NOT_OK(CheckArity(table, cols));
  std::shared_ptr<const TableColumns>& view = views_[table_id];
  if (view == nullptr) view = table.columnar();
  // Hashed as SlotIndex hashes a slot; cells compare as Value::operator==
  // (NULL == NULL), so the probe finds the slot Table::Find finds.
  const uint32_t phys = batch.Physical(row);
  size_t hash = cols.size();
  for (uint32_t c : cols) HashCombine(&hash, batch.col(c).HashAt(phys));
  auto same = [&](uint32_t slot) {
    for (size_t k = 0; k < cols.size(); ++k) {
      if (!view->columns[k]->EqualsAt(slot, batch.col(cols[k]), phys)) {
        return false;
      }
    }
    return true;
  };
  uint32_t slot = view->SlotIndex().Find(hash, same);
  if (slot == FlatHashIndex::kNone || !table.IsLive(slot)) {
    return std::optional<RowId>(std::nullopt);
  }
  return std::optional<RowId>(RowId{table_id, slot});
}

}  // namespace hippo::cqa
