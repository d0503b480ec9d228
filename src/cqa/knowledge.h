// Membership providers: how grounding answers "is R(t) in the database?".
//
// The base system issues a membership query against the relational engine
// for every check — the costly path the paper describes ("this is done by
// simply executing the appropriate membership queries on the database").
// The knowledge-gathering (KG) optimization instead answers membership from
// an in-memory index per relation touched by the query, gathered alongside
// the columnar view the envelope scans, so membership checks execute
// without any queries on the database.
#pragma once

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "cqa/ground_formula.h"

namespace hippo::cqa {

/// Base mode: each lookup plans and executes a selection query
/// (σ_{cols = values} R) against the engine, like a frontend issuing SQL
/// membership probes at the RDBMS.
class QueryMembershipProvider final : public MembershipProvider {
 public:
  explicit QueryMembershipProvider(const Catalog& catalog)
      : catalog_(catalog) {}

  Result<std::optional<RowId>> Lookup(
      uint32_t table_id, const ColumnBatch& batch, size_t row,
      const std::vector<uint32_t>& cols) override;
  size_t NumLookups() const override { return lookups_; }

 private:
  const Catalog& catalog_;
  size_t lookups_ = 0;
};

/// Knowledge-gathering mode: lookups probe the slot index of each touched
/// table's columnar view (TableColumns::SlotIndex, built once per image
/// and shared by every query and prover worker reading it) and issue no
/// queries. One provider per thread; the catalog must not change while it
/// lives, as it keeps the views it fetched.
class IndexMembershipProvider final : public MembershipProvider {
 public:
  explicit IndexMembershipProvider(const Catalog& catalog)
      : catalog_(catalog), views_(catalog.NumTables()) {}

  Result<std::optional<RowId>> Lookup(
      uint32_t table_id, const ColumnBatch& batch, size_t row,
      const std::vector<uint32_t>& cols) override;
  size_t NumLookups() const override { return lookups_; }

 private:
  const Catalog& catalog_;
  /// Columnar views of the tables probed so far, fetched once each.
  std::vector<std::shared_ptr<const TableColumns>> views_;
  size_t lookups_ = 0;
};

}  // namespace hippo::cqa
