// hippo::Database — the public facade of the library.
//
// Owns the catalog, the declared integrity constraints, and a lazily
// maintained conflict hypergraph; exposes SQL execution plus the four ways
// of answering a query over an inconsistent database that the paper's
// demonstration contrasts:
//
//   * Query()                      — ordinary evaluation, ignoring conflicts;
//   * QueryOverCore()              — evaluation after removing every
//                                    conflicting tuple (traditional cleaning);
//   * ConsistentAnswers()          — Hippo (conflict hypergraph + prover);
//   * ConsistentAnswersByRewriting() — the ABC query-rewriting baseline;
//   * ConsistentAnswersAllRepairs()  — exact evaluation over every repair
//                                    (exponential; ground truth).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "cqa/aggregates.h"
#include "cqa/engine.h"
#include "detect/detector.h"
#include "detect/incremental.h"
#include "exec/executor.h"
#include "hypergraph/hypergraph.h"
#include "plan/logical_plan.h"
#include "repairs/repair_enumerator.h"

namespace hippo {

/// Access-path counts of the row-locating DML: DELETE and UPDATE
/// statements and DeleteRow calls. A statement whose WHERE pins every
/// column to a constant (DeleteRow always does) probes the table's row
/// index and examines at most the one row the probe returns; any other
/// statement scans and examines every live row.
struct DmlStats {
  uint64_t statements = 0;
  uint64_t index_probes = 0;
  uint64_t rows_examined = 0;
};

class Database {
 public:
  Database() = default;
  HIPPO_DISALLOW_COPY(Database);

  // --- DDL / DML ------------------------------------------------------------

  /// Executes a script of ';'-separated CREATE TABLE / INSERT / DELETE /
  /// UPDATE / CREATE CONSTRAINT statements.
  Status Execute(const std::string& sql);

  /// Programmatic row insertion (values are coerced to the column types).
  Status InsertRow(const std::string& table, Row values);

  /// Programmatic row deletion by exact value (no-op when absent).
  Status DeleteRow(const std::string& table, const Row& values);

  /// Registers an already-built constraint. Rejected if one of its atom
  /// relations is the parent of a foreign key (restricted-FK invariant).
  Status AddConstraint(DenialConstraint constraint);

  /// Registers a restricted foreign key. The parent relation must carry no
  /// other constraints (denial atoms, FK child role) — that is what keeps
  /// repairs representable by the conflict hypergraph.
  Status AddForeignKey(ForeignKeyConstraint fk);

  /// Removes a denial constraint or foreign key by name (NotFound when
  /// absent). Formerly conflicting tuples may become consistent answers.
  Status DropConstraint(const std::string& name);

  /// Drops a table. Refused (NotSupported) while any constraint or foreign
  /// key references it — drop those first.
  Status DropTable(const std::string& name);

  // --- querying --------------------------------------------------------------

  /// Plans (and binds) a SELECT statement.
  Result<PlanNodePtr> Plan(const std::string& select_sql) const;

  /// Renders the bound plan, its envelope, and (when applicable) the
  /// rewritten plan of a SELECT statement — the EXPLAIN facility.
  Result<std::string> Explain(const std::string& select_sql) const;

  /// EXPLAIN ANALYZE: Explain's execute-and-annotate mode. Runs the query
  /// for real through ConsistentAnswers with a per-query trace attached
  /// and renders the executed tree — route taken, then one line per span
  /// (engine phases and executor operators) with wall time and output
  /// cardinality. Answers are identical to an untraced run; `stats`
  /// receives the same HippoStats ConsistentAnswers would produce.
  Result<std::string> ExplainAnalyze(
      const std::string& select_sql,
      const cqa::HippoOptions& options = cqa::HippoOptions(),
      cqa::HippoStats* stats = nullptr);

  /// Plain evaluation over the (possibly inconsistent) instance.
  Result<ResultSet> Query(const std::string& select_sql) const;

  /// Evaluation over the "core": every conflicting tuple removed.
  Result<ResultSet> QueryOverCore(const std::string& select_sql);

  /// Consistent answers via Hippo.
  Result<ResultSet> ConsistentAnswers(
      const std::string& select_sql,
      const cqa::HippoOptions& options = cqa::HippoOptions(),
      cqa::HippoStats* stats = nullptr);

  /// Consistent answers via the query-rewriting baseline (NotSupported for
  /// queries/constraints outside its class).
  Result<ResultSet> ConsistentAnswersByRewriting(
      const std::string& select_sql);

  /// Exact consistent answers by evaluating over every repair. Errors with
  /// NotSupported when more than `repair_limit` repairs exist.
  Result<ResultSet> ConsistentAnswersAllRepairs(const std::string& select_sql,
                                                size_t repair_limit = 100000);

  /// Range-consistent answer to a scalar aggregate: the [glb, lub] interval
  /// of `fn` over `table.column` across all repairs (closed form under the
  /// clique-partition property, e.g. a single FD; exact enumeration
  /// otherwise). `column` is ignored for COUNT.
  Result<cqa::AggRange> RangeConsistentAggregate(
      const std::string& table, cqa::AggFn fn, const std::string& column = "",
      cqa::AggStats* stats = nullptr);

  /// Grouped variant: the [glb, lub] interval of `fn` per value of
  /// `group_columns` (extension of the demo's reference [3]; closed form
  /// when no conflict clique straddles two groups, e.g. when grouping by a
  /// subset of the FD determinant).
  Result<std::vector<cqa::GroupRange>> GroupedRangeConsistentAggregate(
      const std::string& table, cqa::AggFn fn, const std::string& column,
      const std::vector<std::string>& group_columns,
      cqa::AggStats* stats = nullptr);

  // --- inspection -------------------------------------------------------------

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  const std::vector<DenialConstraint>& constraints() const {
    return constraints_;
  }
  const std::vector<ForeignKeyConstraint>& foreign_keys() const {
    return foreign_keys_;
  }

  /// The conflict hypergraph (runs Conflict Detection on first use; cached
  /// until the next DML/constraint change).
  ///
  /// Thread safety: the first-use build is serialized internally, so any
  /// number of reader threads may call Hypergraph() — and the query paths
  /// that use it (ConsistentAnswers, QueryOverCore, IsConsistent, ...) —
  /// concurrently on a cold cache. Writers (DML, constraint DDL,
  /// SetDetectOptions) still require exclusion from all readers: they
  /// invalidate or mutate the graph the readers' pointers refer to. The
  /// service::QueryService layer provides that exclusion via epoch-versioned
  /// snapshots.
  Result<const ConflictHypergraph*> Hypergraph();

  /// As Hypergraph(), but detecting with explicit options when the cache is
  /// cold (a cached graph is returned unchanged). This is how
  /// HippoOptions::detect reaches the detector. When `reused_cache` is
  /// non-null it is set to true iff a previously built graph was returned —
  /// i.e. `options` had no effect on detection.
  Result<const ConflictHypergraph*> HypergraphWith(
      const DetectOptions& options, bool* reused_cache = nullptr);

  /// A structurally shared copy-on-write copy of the hypergraph
  /// (ConflictHypergraph::Share), building it first when the cache is cold.
  /// Used by service::Snapshot to freeze an epoch. A writer-path operation:
  /// requires exclusion from concurrent readers and writers, like DML.
  Result<ConflictHypergraph> ShareHypergraph();

  /// Generation counter of the hypergraph cache: incremented every time a
  /// freshly detected graph is published (first use and every rebuild after
  /// an invalidation). Incremental in-place maintenance does not advance
  /// the epoch — the graph object stays current. Starts at 0 (no graph
  /// built yet).
  uint64_t hypergraph_epoch() const;

  /// Number of repairs of the current instance (exponential; bounded).
  Result<size_t> CountRepairs(size_t limit = 100000);

  /// True when the instance satisfies all constraints.
  Result<bool> IsConsistent();

  /// Forces re-detection on next use (called automatically by DML when
  /// incremental maintenance is off, and by constraint changes always).
  /// A writer-path operation: requires exclusion from concurrent readers.
  void InvalidateHypergraph();

  /// True when a built conflict hypergraph is cached — i.e. no
  /// invalidation is pending and reads will not trigger a re-detection.
  /// The commit pipeline uses this to notice that a statement it
  /// classified as plain DML actually invalidated the graph (hidden DDL)
  /// and to restore the maintained-graph invariant before publishing.
  bool hypergraph_current() const;

  /// A structurally shared copy-on-write fork of this database: every
  /// table is pointer-shared via Catalog::Share (either side's next write
  /// clones only the touched table), constraints are deep-copied, foreign
  /// keys and options are copied. The fork starts with no hypergraph and
  /// incremental maintenance off — it is a private lineage for the
  /// service's asynchronous bulk/DDL commit rounds: apply the bulk there,
  /// re-detect in the background, replay overtaking small commits, then
  /// swap the fork in as the new master (a pointer swap).
  ///
  /// A writer-path operation on *this* database too (Share marks the
  /// tables shared): requires the same exclusion as DML.
  std::unique_ptr<Database> ForkShared();

  /// Switches to incremental maintenance: the conflict hypergraph is kept
  /// up to date across INSERT/DELETE/UPDATE instead of being recomputed
  /// from scratch on the next read (the long-running-activity scenario of
  /// the paper's introduction). Computes the hypergraph eagerly.
  Status EnableIncrementalMaintenance();

  /// Back to recompute-on-demand (keeps the current hypergraph).
  void DisableIncrementalMaintenance() {
    incremental_enabled_ = false;
    incremental_.reset();
  }

  bool incremental_maintenance_enabled() const {
    return incremental_enabled_;
  }

  /// Stats from the incremental maintainer (zeros when disabled).
  IncrementalStats incremental_stats() const {
    return incremental_ != nullptr ? incremental_->stats()
                                   : IncrementalStats();
  }

  /// Detection options (e.g. disabling the FD fast path for ablations).
  void SetDetectOptions(DetectOptions options) {
    detect_options_ = options;
    InvalidateHypergraph();
  }

  /// Toggles the algebraic plan optimizer (filter pushdown, product→join)
  /// for the plain evaluation paths: Query, QueryOverCore, and the
  /// rewriting baseline. Hippo's envelope pipeline is structure-sensitive
  /// and is never rewritten. On by default; the A3 ablation bench flips it.
  void set_optimizer_enabled(bool enabled) { optimizer_enabled_ = enabled; }
  bool optimizer_enabled() const { return optimizer_enabled_; }

  /// Stats from the last detection run.
  const DetectStats& detect_stats() const { return detect_stats_; }

  /// Cumulative DML access-path counts of this database (a fork starts
  /// from zero).
  const DmlStats& dml_stats() const { return dml_stats_; }

 private:
  Result<PlanNodePtr> PlanParsed(const sql::SelectStmt& stmt) const;

  /// Routes one applied insert/delete to the incremental maintainer when
  /// active, otherwise invalidates the cached hypergraph.
  Status NoteInsert(RowId rid);
  Status NoteDelete(RowId rid);

  Status ExecuteDelete(const sql::DeleteStmt& stmt);
  Status ExecuteUpdate(const sql::UpdateStmt& stmt);

  /// The access path DELETE and UPDATE share: the live slots of `table`
  /// satisfying the bound `where` (every live slot when null), in slot
  /// order. Probes the row index when `where` pins every column to a
  /// constant of its type and re-checks `where` on the probed row; scans
  /// otherwise. Counts one statement into dml_stats_.
  std::vector<uint32_t> MatchRows(const Table& table, const Expr* where);
  /// The live slot holding `canonical` (already coerced), via the row
  /// index; counts the probe and the row it examines.
  std::optional<uint32_t> ProbeRow(const Table& table, const Row& canonical);
  /// Tombstones `slots` of table `table_id` and notes each delete.
  /// Unshares the table only when `slots` is non-empty.
  Status DeleteSlots(uint32_t table_id, const std::vector<uint32_t>& slots);

  /// True if `table_id` appears as the parent of a registered foreign key.
  bool IsFkParent(uint32_t table_id) const;
  /// True if `table_id` carries any constraint (denial atom or FK child).
  bool HasConstraints(uint32_t table_id) const;

  Catalog catalog_;
  std::vector<DenialConstraint> constraints_;
  std::vector<ForeignKeyConstraint> foreign_keys_;
  /// Serializes the lazy hypergraph build (and epoch/invalidation updates)
  /// so concurrent readers hitting a cold cache race neither on the
  /// optional's engagement nor on detect_stats_.
  mutable std::mutex hypergraph_mu_;
  std::optional<ConflictHypergraph> hypergraph_;
  uint64_t hypergraph_epoch_ = 0;
  DetectOptions detect_options_;
  DetectStats detect_stats_;
  DmlStats dml_stats_;
  bool incremental_enabled_ = false;
  std::unique_ptr<IncrementalDetector> incremental_;
  bool optimizer_enabled_ = true;
};

}  // namespace hippo
