#include "exec/operators.h"

#include <unordered_map>

#include "exec/batch_eval.h"
#include "expr/evaluator.h"

namespace hippo::exec {

namespace {

/// Builds (left key indexes, right key indexes, residual) from `condition`.
struct JoinSplit {
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  ExprPtr residual;
  bool HasEqui() const { return !left_keys.empty(); }
};

JoinSplit SplitCondition(const Expr& condition, size_t left_width) {
  JoinSplit split;
  std::vector<EquiPair> pairs;
  SplitJoinCondition(condition, left_width, &pairs, &split.residual);
  for (const EquiPair& p : pairs) {
    split.left_keys.push_back(p.left_index);
    split.right_keys.push_back(p.right_index);
  }
  return split;
}

/// Hash of columns `keys` of physical row `p`, seeded with the key arity
/// like HashRow of the key tuple; false (no hash) when a key cell is NULL:
/// NULL join keys never match.
bool HashKeyAt(const ColumnBatch& batch, const std::vector<int>& keys,
               uint32_t p, size_t* hash) {
  size_t seed = keys.size();
  for (int k : keys) {
    const ColumnVector& cv = batch.col(static_cast<size_t>(k));
    if (cv.IsNull(p)) return false;
    HashCombine(&seed, cv.HashAt(p));
  }
  *hash = seed;
  return true;
}

/// Indexes the logical rows of `batch` by HashKeyAt of `keys`, skipping
/// NULL keys; descending inserts leave every chain in ascending order.
FlatHashIndex BuildKeyIndex(const ColumnBatch& batch,
                            const std::vector<int>& keys) {
  FlatHashIndex index(batch.NumRows());
  for (size_t j = batch.NumRows(); j-- > 0;) {
    size_t hash;
    if (HashKeyAt(batch, keys, batch.Physical(j), &hash)) {
      index.Insert(static_cast<uint32_t>(j), hash);
    }
  }
  return index;
}

}  // namespace

// ---------------------------------------------------------------------------
// Columnar kernels
// ---------------------------------------------------------------------------

BatchJoinChain::BatchJoinChain(const ColumnBatch* probe,
                               std::vector<LevelSpec> levels,
                               const Expr* final_filter)
    : probe_(probe), final_filter_(final_filter) {
  offsets_.push_back(0);
  offsets_.push_back(probe->NumColumns());
  levels_.reserve(levels.size());
  for (LevelSpec& spec : levels) {
    Level level;
    level.batch = spec.build;
    level.condition = spec.condition;
    size_t prefix_width = offsets_.back();
    if (spec.condition != nullptr) {
      JoinSplit split = SplitCondition(*spec.condition, prefix_width);
      if (split.HasEqui()) {
        level.has_equi = true;
        level.left_keys = std::move(split.left_keys);
        level.right_keys = std::move(split.right_keys);
        level.residual = std::move(split.residual);
        level.build = BuildKeyIndex(*level.batch, level.right_keys);
      }
    }
    offsets_.push_back(prefix_width + level.batch->NumColumns());
    levels_.push_back(std::move(level));
  }
}

std::pair<const ColumnVector*, uint32_t> BatchJoinChain::CellAt(
    const uint32_t* idxs, size_t col) const {
  size_t s = 0;
  while (offsets_[s + 1] <= col) ++s;
  const ColumnBatch& b = segment(s);
  return {&b.col(col - offsets_[s]), b.Physical(idxs[s])};
}

Value BatchJoinChain::TupleValue(const uint32_t* idxs, size_t col) const {
  auto [cv, p] = CellAt(idxs, col);
  return cv->ValueAt(p);
}

bool BatchJoinChain::HashLeftKey(const uint32_t* idxs, const Level& level,
                                 size_t* hash) const {
  size_t seed = level.left_keys.size();
  for (int lk : level.left_keys) {
    auto [cv, p] = CellAt(idxs, static_cast<size_t>(lk));
    if (cv->IsNull(p)) return false;  // NULL join keys never match
    HashCombine(&seed, cv->HashAt(p));
  }
  *hash = seed;
  return true;
}

bool BatchJoinChain::LeftKeyEquals(const uint32_t* idxs, const Level& level,
                                   uint32_t build_row) const {
  const ColumnBatch& rb = *level.batch;
  uint32_t rp = rb.Physical(build_row);
  for (size_t k = 0; k < level.left_keys.size(); ++k) {
    auto [cv, p] = CellAt(idxs, static_cast<size_t>(level.left_keys[k]));
    const ColumnVector& rcv =
        rb.col(static_cast<size_t>(level.right_keys[k]));
    if (!cv->EqualsAt(p, rcv, rp)) return false;
  }
  return true;
}

void BatchJoinChain::Descend(size_t level, uint32_t* idxs,
                             std::vector<uint32_t>* out) const {
  if (level == levels_.size()) {
    if (final_filter_ != nullptr) {
      auto at = [&](size_t col) { return TupleValue(idxs, col); };
      if (!EvalPredicateOver(*final_filter_, at)) return;
    }
    out->insert(out->end(), idxs, idxs + levels_.size() + 1);
    return;
  }
  const Level& L = levels_[level];
  if (L.has_equi) {
    size_t hash;
    if (!HashLeftKey(idxs, L, &hash)) return;
    // Same-hash different-key rows are filtered by column equality, which
    // keeps the chain's insertion order.
    auto key_equals = [&](uint32_t j) { return LeftKeyEquals(idxs, L, j); };
    for (uint32_t j = L.build.Find(hash, key_equals); j != FlatHashIndex::kNone;
         j = L.build.Find(hash, key_equals, j)) {
      idxs[level + 1] = j;
      if (L.residual != nullptr) {
        auto at = [&](size_t col) { return TupleValue(idxs, col); };
        if (!EvalPredicateOver(*L.residual, at)) continue;
      }
      Descend(level + 1, idxs, out);
    }
    return;
  }
  size_t n = L.batch->NumRows();
  for (uint32_t j = 0; j < n; ++j) {
    idxs[level + 1] = j;
    if (L.condition != nullptr) {
      auto at = [&](size_t col) { return TupleValue(idxs, col); };
      if (!EvalPredicateOver(*L.condition, at)) continue;
    }
    Descend(level + 1, idxs, out);
  }
}

void BatchJoinChain::Probe(size_t begin, size_t end,
                           std::vector<uint32_t>* out) const {
  std::vector<uint32_t> idxs(levels_.size() + 1);
  for (size_t i = begin; i < end; ++i) {
    idxs[0] = static_cast<uint32_t>(i);
    Descend(0, idxs.data(), out);
  }
}

ColumnBatch BatchJoinChain::Materialize(
    const std::vector<uint32_t>& tuples) const {
  size_t arity = tuple_arity();
  size_t n = tuples.size() / arity;
  std::vector<ColumnVectorPtr> out_cols;
  out_cols.reserve(output_width());
  for (size_t s = 0; s < levels_.size() + 1; ++s) {
    const ColumnBatch& b = segment(s);
    for (size_t c = 0; c < b.NumColumns(); ++c) {
      const ColumnVector& src = b.col(c);
      auto col = std::make_shared<ColumnVector>(src.type());
      col->Reserve(n);
      for (size_t t = 0; t < n; ++t) {
        col->AppendFrom(src, b.Physical(tuples[t * arity + s]));
      }
      out_cols.push_back(std::move(col));
    }
  }
  return ColumnBatch(std::move(out_cols), n);
}

BatchAntiJoinProbe::BatchAntiJoinProbe(const ColumnBatch* left,
                                       const ColumnBatch* right,
                                       const Expr* condition)
    : left_(left), right_(right), condition_(condition) {
  JoinSplit split = SplitCondition(*condition, left->NumColumns());
  has_equi_ = split.HasEqui();
  if (!has_equi_) return;
  left_keys_ = std::move(split.left_keys);
  right_keys_ = std::move(split.right_keys);
  residual_ = std::move(split.residual);
  build_ = BuildKeyIndex(*right_, right_keys_);
}

bool BatchAntiJoinProbe::PairPredicate(const Expr& expr, uint32_t left_row,
                                       uint32_t right_row) const {
  size_t lw = left_->NumColumns();
  auto at = [&](size_t col) {
    if (col < lw) {
      return left_->col(col).ValueAt(left_->Physical(left_row));
    }
    return right_->col(col - lw).ValueAt(right_->Physical(right_row));
  };
  return EvalPredicateOver(expr, at);
}

void BatchAntiJoinProbe::Probe(size_t begin, size_t end,
                               std::vector<uint32_t>* out) const {
  for (size_t i = begin; i < end; ++i) {
    uint32_t li = static_cast<uint32_t>(i);
    uint32_t p = left_->Physical(li);
    auto partner = [&](uint32_t j) {
      uint32_t rp = right_->Physical(j);
      for (size_t k = 0; k < left_keys_.size(); ++k) {
        const ColumnVector& lcv = left_->col(left_keys_[k]);
        if (!lcv.EqualsAt(p, right_->col(right_keys_[k]), rp)) return false;
      }
      const Expr* pred = has_equi_ ? residual_.get() : condition_;
      return pred == nullptr || PairPredicate(*pred, li, j);
    };
    bool matched = false;
    size_t hash;
    if (!has_equi_) {
      for (uint32_t j = 0; j < right_->NumRows() && !matched; ++j) {
        matched = partner(j);
      }
    } else if (HashKeyAt(*left_, left_keys_, p, &hash)) {
      // (A NULL key has no partner: the left row survives.)
      matched = build_.Find(hash, partner) != FlatHashIndex::kNone;
    }
    if (!matched) out->push_back(li);
  }
}

namespace {

/// Appends to `keep` the first occurrence of each distinct logical row of
/// `batch` (indexed into `firsts`, sized to `batch`) that `other` (its
/// distinct rows indexed in `other_firsts`; null = no filter) holds iff
/// `in_other`.
void KeepFirsts(const ColumnBatch& batch, const ColumnBatch* other,
                const FlatHashIndex* other_firsts, bool in_other,
                FlatHashIndex* firsts, std::vector<uint32_t>* keep) {
  for (uint32_t i = 0; i < batch.NumRows(); ++i) {
    size_t hash = batch.RowHashAt(i);
    if (other != nullptr) {
      auto same = [&](uint32_t j) { return batch.RowEqualsAt(i, *other, j); };
      bool held = other_firsts->Find(hash, same) != FlatHashIndex::kNone;
      if (held != in_other) continue;
    }
    auto dup = [&](uint32_t j) { return batch.RowEqualsAt(i, batch, j); };
    if (firsts->Find(hash, dup) != FlatHashIndex::kNone) continue;
    firsts->Insert(i, hash);
    keep->push_back(i);
  }
}

}  // namespace

ColumnBatch DedupBatch(const ColumnBatch& batch) {
  FlatHashIndex firsts(batch.NumRows());
  std::vector<uint32_t> keep;
  KeepFirsts(batch, nullptr, nullptr, false, &firsts, &keep);
  if (keep.size() == batch.NumRows()) return batch;  // already a set
  return batch.Narrow(keep);
}

ColumnBatch SetOpBatch(PlanKind kind, const ColumnBatch& left,
                       const ColumnBatch& right,
                       const std::vector<TypeId>& types) {
  FlatHashIndex left_firsts(left.NumRows()), right_firsts(right.NumRows());
  std::vector<uint32_t> keep_left, keep_right;
  if (kind == PlanKind::kUnion) {
    KeepFirsts(left, nullptr, nullptr, false, &left_firsts, &keep_left);
    KeepFirsts(right, &left, &left_firsts, false, &right_firsts, &keep_right);
  } else {
    KeepFirsts(right, nullptr, nullptr, false, &right_firsts, &keep_right);
    KeepFirsts(left, &right, &right_firsts, kind == PlanKind::kIntersect,
               &left_firsts, &keep_left);
    keep_right.clear();
  }
  if (keep_right.empty()) return left.Narrow(keep_left);
  // Union with right-only rows: gather both sides into new columns.
  size_t n = keep_left.size() + keep_right.size();
  std::vector<ColumnVectorPtr> cols;
  for (size_t c = 0; c < types.size(); ++c) {
    auto col = std::make_shared<ColumnVector>(types[c]);
    col->Reserve(n);
    for (uint32_t i : keep_left) col->AppendFrom(left.col(c), left.Physical(i));
    for (uint32_t j : keep_right) {
      col->AppendFrom(right.col(c), right.Physical(j));
    }
    cols.push_back(std::move(col));
  }
  return ColumnBatch(std::move(cols), n);
}

namespace {

/// Streaming accumulator for one aggregate function over one group, with
/// SQL NULL semantics: NULL inputs are skipped; COUNT(*) counts rows;
/// empty SUM/MIN/MAX/AVG are NULL, empty COUNT is 0.
struct Accumulator {
  int64_t count = 0;
  int64_t sum_i = 0;
  double sum_d = 0;
  Value extreme;  // running MIN/MAX (kNull until the first non-null input)

  void Add(const AggregateNode::AggSpec& spec, const Row& row) {
    if (spec.arg == nullptr) {  // COUNT(*)
      ++count;
      return;
    }
    Value v = EvalExpr(*spec.arg, row);
    if (v.is_null()) return;
    ++count;
    switch (spec.fn) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == TypeId::kDouble) {
          sum_d += v.AsDouble();
        } else {
          sum_i += v.AsInt();
          sum_d += static_cast<double>(v.AsInt());
        }
        break;
      case AggFunc::kMin:
        if (extreme.is_null() || v.Compare(extreme) < 0) extreme = v;
        break;
      case AggFunc::kMax:
        if (extreme.is_null() || v.Compare(extreme) > 0) extreme = v;
        break;
    }
  }

  Value Finish(const AggregateNode::AggSpec& spec) const {
    switch (spec.fn) {
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return (spec.arg != nullptr &&
                spec.arg->result_type() == TypeId::kDouble)
                   ? Value::Double(sum_d)
                   : Value::Int(sum_i);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum_d / static_cast<double>(count));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return extreme;
    }
    return Value::Null();
  }
};

}  // namespace

Result<std::vector<Row>> AggregateRows(const AggregateNode& agg,
                                       const std::vector<Row>& input) {
  const size_t n_groups = agg.NumGroupExprs();
  const auto& specs = agg.aggs();

  struct GroupState {
    Row key;
    std::vector<Accumulator> accs;
  };
  std::unordered_map<Row, size_t, RowHasher, RowEq> index;
  std::vector<GroupState> groups;  // first-occurrence order

  for (const Row& row : input) {
    Row key;
    key.reserve(n_groups);
    for (size_t g = 0; g < n_groups; ++g) {
      key.push_back(EvalExpr(agg.group_expr(g), row));
    }
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.push_back(GroupState{std::move(key),
                                  std::vector<Accumulator>(specs.size())});
    }
    GroupState& state = groups[it->second];
    for (size_t a = 0; a < specs.size(); ++a) {
      state.accs[a].Add(specs[a], row);
    }
  }

  // SQL: a global aggregate over an empty input still produces one row.
  if (groups.empty() && n_groups == 0) {
    groups.push_back(
        GroupState{Row{}, std::vector<Accumulator>(specs.size())});
  }

  std::vector<Row> out;
  out.reserve(groups.size());
  for (const GroupState& g : groups) {
    Row row = g.key;
    row.reserve(n_groups + specs.size());
    for (size_t a = 0; a < specs.size(); ++a) {
      row.push_back(g.accs[a].Finish(specs[a]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace hippo::exec
