// In-memory row-store table with set semantics and stable row identifiers.
//
// Hippo's repair theory is defined over *sets* of tuples: a repair is a
// maximal consistent subset of the instance, and the conflict hypergraph
// connects tuples (not physical duplicates). The table therefore enforces
// set semantics on insert: re-inserting an existing row is a silent no-op,
// so every fact R(t) corresponds to exactly one RowId.
//
// DELETE is implemented with tombstones: a deleted row keeps its slot (and
// therefore its RowId), scans skip it, and re-inserting the same values
// resurrects the original RowId. Stable RowIds are what make incremental
// maintenance of the conflict hypergraph under updates possible.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "catalog/schema.h"
#include "common/hash.h"
#include "common/status.h"
#include "storage/column_batch.h"
#include "storage/flat_hash_index.h"
#include "types/value.h"

namespace hippo {

/// Identifies a tuple in the database: (table ordinal in catalog, row index).
struct RowId {
  uint32_t table = 0;
  uint32_t row = 0;

  bool operator==(const RowId& o) const {
    return table == o.table && row == o.row;
  }
  bool operator!=(const RowId& o) const { return !(*this == o); }
  bool operator<(const RowId& o) const {
    return table != o.table ? table < o.table : row < o.row;
  }
  uint64_t Pack() const {
    return (static_cast<uint64_t>(table) << 32) | row;
  }
  std::string ToString() const {
    return "t" + std::to_string(table) + "#" + std::to_string(row);
  }
};

struct RowIdHasher {
  size_t operator()(const RowId& r) const { return Mix64(r.Pack()); }
};

/// \brief Immutable columnar image of a table's physical row slots.
///
/// One ColumnVector per schema column over slots [0, num_slots) — including
/// tombstoned slots, so the physical index of a cell IS its RowId row and
/// liveness stays a per-scan selection concern. `rowids` is an INT column
/// holding 0..num_slots-1 for plans that project the row id.
struct TableColumns {
  std::vector<ColumnVectorPtr> columns;
  ColumnVectorPtr rowids;
  size_t num_slots = 0;

  size_t ApproxBytes() const;
};

/// \brief A base relation: schema + rows, append-only with set semantics.
class Table {
 public:
  Table(uint32_t id, std::string name, Schema schema)
      : id_(id), name_(std::move(name)), schema_(std::move(schema)) {}

  // The columnar-view cache sits behind a mutex (lazily built on const,
  // snapshot-shared tables), so copying needs to be spelled out; the copy
  // shares the immutable view — both tables image the same slots.
  Table(const Table& other);
  Table& operator=(const Table& other);

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Number of physical row slots (live + tombstoned). Iterate [0, NumRows())
  /// and filter with IsLive() to visit the instance.
  size_t NumRows() const { return rows_.size(); }
  /// Number of live (non-deleted) rows — the cardinality of the relation.
  size_t NumLiveRows() const { return num_live_; }
  const Row& row(size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// True when slot `i` holds a live row (false once deleted).
  bool IsLive(size_t i) const { return i < live_.size() && live_[i]; }

  /// Coerces `values` to the column types — the canonical stored form that
  /// Insert() writes and Find() probes with. Errors on arity mismatch or
  /// uncoercible values. Lets writers probe for set-semantics no-ops on a
  /// const (snapshot-shared) view before paying a copy-on-write clone.
  Result<Row> CoerceRow(const Row& values) const;

  /// Inserts a row after coercing each value to the column type.
  /// Returns the RowId of the (new, pre-existing, or resurrected) row and
  /// whether the live instance changed (true for new rows and for
  /// resurrections of tombstoned rows). Errors on arity mismatch or
  /// uncoercible values.
  Result<std::pair<RowId, bool>> Insert(const Row& values);

  /// Tombstones the row in slot `row_index`. Returns true when the row was
  /// live (i.e. the instance changed), false when already deleted or out of
  /// range. The slot and its RowId remain reserved.
  bool Delete(uint32_t row_index);

  /// Looks up the RowId of an exact *live* row, if present (O(1) expected).
  /// `values` is coerced to the column types first (rows are stored in
  /// canonical form), so probing an INT column with 2.0 finds the row; an
  /// uncoercible or wrong-arity probe is simply a miss.
  std::optional<RowId> Find(const Row& values) const;

  /// The full-row index over every slot, tombstoned ones included: slot
  /// `i` is linked under HashRow(row(i)). Set semantics keep slots
  /// distinct, so a probe matches at most one slot, whose liveness the
  /// caller checks. Lets a reader compare cells its own way (the
  /// knowledge-gathering probe compares against the columnar image).
  const FlatHashIndex& row_index() const { return index_; }

  /// Clears all rows (used by workload generators between configurations).
  void Clear();

  /// Columnar image of the physical slots, built lazily on first use and
  /// memoized until a write adds a slot (Insert of a NEW row) or Clear().
  /// Tombstone flips do NOT invalidate it — liveness is per-scan selection,
  /// not part of the image. Thread-safe on shared snapshots.
  std::shared_ptr<const TableColumns> columnar() const;

  /// Rough resident size of this table in bytes: rows (including string
  /// payloads, SSO-aware), tombstone bits, the row index's three arrays,
  /// and the memoized columnar view's buffers. Used by the
  /// per-snapshot memory accounting (Catalog::ApproxBytes, `.mem`).
  size_t ApproxBytes() const;

 private:
  void InvalidateColumnar();
  /// Slot holding `canonical` (already coerced, hashed to `hash` by
  /// HashRow), live or not, or kNone.
  uint32_t FindSlot(const Row& canonical, size_t hash) const;

  uint32_t id_;
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> live_;
  size_t num_live_ = 0;
  // Full-row index over rows_ enforcing set semantics and serving Find();
  // it keeps no rows of its own. Tombstoned slots stay linked, so a
  // re-insert resurrects the old RowId.
  FlatHashIndex index_;
  // Memoized columnar image; guarded because readers materialize it lazily
  // on const snapshot-shared tables from concurrent query threads.
  mutable std::mutex columnar_mu_;
  mutable std::shared_ptr<const TableColumns> columnar_;
};

}  // namespace hippo
