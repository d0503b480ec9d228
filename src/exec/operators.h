// Join, set-operation, and aggregation kernels shared by the executor.
//
// The hash-join kernels are the shared-build classes BatchJoinChain /
// BatchAntiJoinProbe: they hash the build side(s) once and then let any
// number of threads probe disjoint row ranges concurrently — the
// partition-aware probe path used by parallel conflict detection and the
// (serial or partitioned) executor. Every hash table of the batch kernels
// is a FlatHashIndex. Aggregation alone works on rows.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "expr/expr.h"
#include "plan/logical_plan.h"
#include "storage/column_batch.h"
#include "storage/flat_hash_index.h"

namespace hippo::exec {

/// Hash aggregation for an AggregateNode over a materialized input.
/// Groups appear in first-occurrence order; a global aggregate (no GROUP
/// BY) over an empty input yields one row (COUNT = 0, other aggregates
/// NULL), per SQL semantics.
Result<std::vector<Row>> AggregateRows(const AggregateNode& agg,
                                       const std::vector<Row>& input);

// ---------------------------------------------------------------------------
// Columnar (batch) kernels. They operate on logical row *indexes* into
// shared ColumnBatches: joins emit flat index tuples instead of materialized
// rows, anti-joins, dedup and set operations emit surviving indexes (a
// selection narrowing), and key hashes are computed over column slices via
// ColumnVector::HashAt (== Value::Hash).
// ---------------------------------------------------------------------------

/// \brief A left-deep chain of hash/NL joins over ColumnBatches whose
/// build sides are hashed once and probed read-only, by index tuple.
///
/// Level i joins the accumulated prefix (probe input + build sides of the
/// levels before it) against its build batch under `condition` (bound over
/// the concatenated schema; null condition = cartesian product). After
/// construction the chain is immutable: Probe() is const and thread-safe,
/// so disjoint slices of the probe input can be evaluated concurrently —
/// each partition pays zero build cost. Probe(out) appends one flat tuple
/// of `tuple_arity()` logical indexes — (probe row, level-0 build row, ...)
/// — per result, in nested-loop order: probe order outer, build-insertion
/// order inner (hash buckets keep insertion order; equal-hash-different-key
/// candidates are filtered by column equality, which preserves order), so
/// slice outputs concatenated in slice order equal a serial evaluation.
/// NULL join keys never match. Materialize() gathers tuples into an output
/// batch.
class BatchJoinChain {
 public:
  struct LevelSpec {
    /// Build input. Not owned; must outlive the chain.
    const ColumnBatch* build = nullptr;
    /// Join condition over concat(prefix, build row); null for a product.
    const Expr* condition = nullptr;
  };

  BatchJoinChain(const ColumnBatch* probe, std::vector<LevelSpec> levels,
                 const Expr* final_filter);

  /// Logical indexes per output tuple: probe + one per level.
  size_t tuple_arity() const { return levels_.size() + 1; }
  /// Total output columns across all segments.
  size_t output_width() const { return offsets_.back(); }
  /// Segment 0 is the probe batch; segment s >= 1 is level s-1's build.
  const ColumnBatch& segment(size_t s) const {
    return s == 0 ? *probe_ : *levels_[s - 1].batch;
  }

  /// Evaluates probe rows [begin, end) through the chain, appending flat
  /// index tuples to `out`. Const and thread-safe (shared build tables).
  void Probe(size_t begin, size_t end, std::vector<uint32_t>* out) const;

  /// Gathers index tuples into a materialized output batch.
  ColumnBatch Materialize(const std::vector<uint32_t>& tuples) const;

 private:
  struct Level {
    const ColumnBatch* batch;
    bool has_equi = false;
    std::vector<int> left_keys;   ///< virtual indexes into the prefix
    std::vector<int> right_keys;  ///< column indexes into `batch`
    ExprPtr residual;
    const Expr* condition;
    /// Logical build rows by key hash, insertion order (has_equi only).
    FlatHashIndex build{0};
  };

  /// The column and physical row of virtual column `col` of a tuple.
  std::pair<const ColumnVector*, uint32_t> CellAt(const uint32_t* idxs,
                                                  size_t col) const;
  Value TupleValue(const uint32_t* idxs, size_t col) const;
  bool HashLeftKey(const uint32_t* idxs, const Level& level,
                   size_t* hash) const;
  bool LeftKeyEquals(const uint32_t* idxs, const Level& level,
                     uint32_t build_row) const;
  void Descend(size_t level, uint32_t* idxs, std::vector<uint32_t>* out) const;

  const ColumnBatch* probe_;
  std::vector<Level> levels_;
  const Expr* final_filter_;
  /// offsets_[s] = first virtual column of segment s; back() = total width.
  std::vector<size_t> offsets_;
};

/// \brief Anti-join with a shared build side: left logical indexes with NO
/// right partner satisfying `condition`, emitted in left order. NULL join
/// keys never match, so a left row with a NULL key survives. Probe() is
/// const and thread-safe, so disjoint slices of the left input can run
/// concurrently.
class BatchAntiJoinProbe {
 public:
  /// Inputs are not owned and must outlive the probe.
  BatchAntiJoinProbe(const ColumnBatch* left, const ColumnBatch* right,
                     const Expr* condition);

  /// Appends every surviving left logical index in [begin, end) to `out`.
  void Probe(size_t begin, size_t end, std::vector<uint32_t>* out) const;

 private:
  bool PairPredicate(const Expr& expr, uint32_t left_row,
                     uint32_t right_row) const;

  const ColumnBatch* left_;
  const ColumnBatch* right_;
  const Expr* condition_;
  bool has_equi_ = false;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  ExprPtr residual_;
  FlatHashIndex build_{0};
};

/// Narrows `batch` to the first occurrence of each distinct logical row.
ColumnBatch DedupBatch(const ColumnBatch& batch);

/// UNION, EXCEPT or INTERSECT (`kind`) with set semantics (NULL equals
/// NULL): first occurrences, left rows before right-only rows. Only a union
/// with right-only rows gathers (into new columns of `types`).
ColumnBatch SetOpBatch(PlanKind kind, const ColumnBatch& left,
                       const ColumnBatch& right,
                       const std::vector<TypeId>& types);

}  // namespace hippo::exec
