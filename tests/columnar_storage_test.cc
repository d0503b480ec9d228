// Tests for the columnar batch layer and the Table fixes that ride along
// with it: ColumnVector/ColumnBatch value fidelity (hash/equality/compare
// parity with Value), the lazily-materialized columnar view and its
// invalidation rules, Table::Find's probe coercion (mixed-type literals
// must locate canonical rows — previously a silent index miss), the
// table's row index (every slot found across rehashes, resurrection, copy
// independence), and the ApproxBytes accounting (index arrays, SSO-aware
// strings, columnar view buffers).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "db/database.h"
#include "storage/column_batch.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

Schema IntStrSchema() {
  Schema s;
  s.AddColumn(Column("a", TypeId::kInt));
  s.AddColumn(Column("b", TypeId::kString));
  return s;
}

// --- ColumnVector / ColumnBatch value fidelity ----------------------------

TEST(ColumnVectorTest, RoundTripsValuesOfEveryType) {
  std::vector<Value> values = {Value::Int(7), Value::Null(), Value::Int(-3)};
  ColumnVector ints = ColumnVector::FromValues(TypeId::kInt, values);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(ints.ValueAt(i), values[i]) << i;
    EXPECT_EQ(ints.HashAt(i), values[i].Hash()) << i;
  }
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_FALSE(ints.is_mixed());

  std::vector<Value> strs = {Value::String("x"), Value::String(""),
                             Value::Null()};
  ColumnVector sc = ColumnVector::FromValues(TypeId::kString, strs);
  for (size_t i = 0; i < strs.size(); ++i) {
    EXPECT_EQ(sc.ValueAt(i), strs[i]) << i;
    EXPECT_EQ(sc.HashAt(i), strs[i].Hash()) << i;
  }
}

TEST(ColumnVectorTest, TypeDefyingValueFlipsToMixedWithoutLosingData) {
  // An INT-declared column receiving a string must keep exact Values.
  ColumnVector col(TypeId::kInt);
  col.AppendValue(Value::Int(1));
  col.AppendValue(Value::String("rogue"));
  col.AppendValue(Value::Null());
  EXPECT_TRUE(col.is_mixed());
  EXPECT_EQ(col.ValueAt(0), Value::Int(1));
  EXPECT_EQ(col.ValueAt(1), Value::String("rogue"));
  EXPECT_TRUE(col.ValueAt(2).is_null());
  EXPECT_EQ(col.HashAt(1), Value::String("rogue").Hash());
}

TEST(ColumnVectorTest, EqualityAndCompareMatchValueSemantics) {
  ColumnVector ints = ColumnVector::FromValues(
      TypeId::kInt, {Value::Int(2), Value::Int(3), Value::Null()});
  ColumnVector dbls = ColumnVector::FromValues(
      TypeId::kDouble, {Value::Double(2.0), Value::Double(3.5), Value::Null()});
  // Int/double coercion, exactly like Value::operator==.
  EXPECT_TRUE(ints.EqualsAt(0, dbls, 0));
  EXPECT_FALSE(ints.EqualsAt(1, dbls, 1));
  // NULL == NULL under the identity semantics the row store uses.
  EXPECT_TRUE(ints.EqualsAt(2, dbls, 2));
  // Cross-engine hash parity: int 2 and double 2.0 must collide, as
  // Value::Hash guarantees (numerics hash by double value).
  EXPECT_EQ(ints.HashAt(0), dbls.HashAt(0));
  // Compare follows the Value total order (NULL sorts first).
  EXPECT_LT(ints.CompareAt(2, ints, 0), 0);
  EXPECT_GT(dbls.CompareAt(1, ints, 1), 0);
}

TEST(ColumnBatchTest, FromRowsToRowsRoundTripAndSelection) {
  std::vector<Row> rows = {
      {Value::Int(1), Value::String("a")},
      {Value::Null(), Value::String("b")},
      {Value::Int(3), Value::Null()},
  };
  ColumnBatch batch =
      ColumnBatch::FromRows(rows, {TypeId::kInt, TypeId::kString});
  EXPECT_EQ(batch.ToRows(), rows);
  EXPECT_EQ(batch.RowHashAt(1), HashRow(rows[1]));

  // Narrow composes selections over logical indexes.
  ColumnBatch tail = batch.Narrow({2u, 0u});
  ASSERT_EQ(tail.NumRows(), 2u);
  EXPECT_EQ(tail.RowAt(0), rows[2]);
  EXPECT_EQ(tail.RowAt(1), rows[0]);
  ColumnBatch one = tail.Narrow({1u});
  ASSERT_EQ(one.NumRows(), 1u);
  EXPECT_EQ(one.RowAt(0), rows[0]);
}

// --- Table columnar view --------------------------------------------------

TEST(TableColumnarViewTest, ViewImagesAllSlotsAndIsCachedUntilNewSlot) {
  Table t(0, "t", IntStrSchema());
  ASSERT_OK(t.Insert({Value::Int(1), Value::String("x")}).status());
  ASSERT_OK(t.Insert({Value::Int(2), Value::String("y")}).status());
  auto view = t.columnar();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->num_slots, 2u);
  EXPECT_EQ(view->columns[0]->IntAt(1), 2);
  EXPECT_EQ(view->rowids->IntAt(1), 1);
  // Cached: same object until a write that adds a slot.
  EXPECT_EQ(t.columnar().get(), view.get());

  // Tombstoning keeps the view valid (liveness is a per-scan selection)...
  ASSERT_TRUE(t.Delete(0));
  EXPECT_EQ(t.columnar().get(), view.get());
  // ...and so does resurrecting the same row (same slot, same values).
  auto rid = t.Insert({Value::Int(1), Value::String("x")});
  ASSERT_OK(rid.status());
  EXPECT_EQ(rid.value().first.row, 0u);
  EXPECT_TRUE(rid.value().second);
  EXPECT_EQ(t.columnar().get(), view.get());

  // A genuinely new row appends a slot: the view must be rebuilt.
  ASSERT_OK(t.Insert({Value::Int(9), Value::String("z")}).status());
  auto rebuilt = t.columnar();
  EXPECT_NE(rebuilt.get(), view.get());
  EXPECT_EQ(rebuilt->num_slots, 3u);
}

TEST(TableColumnarViewTest, CopySharesTheMemoizedView) {
  Table t(0, "t", IntStrSchema());
  ASSERT_OK(t.Insert({Value::Int(1), Value::String("x")}).status());
  auto view = t.columnar();
  Table copy(t);  // the snapshot path: make_shared<Table>(*slot.table)
  EXPECT_EQ(copy.columnar().get(), view.get());
}

// --- The table's row index ------------------------------------------------

/// Every slot, tombstoned or not, is linked under its row's HashRow, and
/// Find answers exactly the live ones.
void ExpectIndexFindsEverySlot(const Table& t) {
  ASSERT_EQ(t.row_index().size(), t.NumRows());
  for (uint32_t slot = 0; slot < t.NumRows(); ++slot) {
    auto same = [&](uint32_t r) { return RowEq()(t.row(r), t.row(slot)); };
    EXPECT_EQ(t.row_index().Find(HashRow(t.row(slot)), same), slot);
    std::optional<RowId> found = t.Find(t.row(slot));
    EXPECT_EQ(found.has_value(), t.IsLive(slot)) << "slot " << slot;
    if (found.has_value()) {
      EXPECT_EQ(found->row, slot);
    }
  }
}

TEST(TableRowIndexTest, FindsEverySlotAcrossRehashes) {
  Table t(0, "t", IntStrSchema());
  // 300 slots cross the head array's doublings at 2, 4, ..., 256; every
  // 7th row holds a NULL and every 5th slot is tombstoned.
  for (int i = 0; i < 300; ++i) {
    Value b = i % 7 == 0 ? Value::Null() : Value::String(std::to_string(i));
    Value a = i % 7 == 3 ? Value::Null() : Value::Int(i);
    auto inserted = t.Insert({a, b});
    ASSERT_OK(inserted.status());
    ASSERT_EQ(inserted.value().first.row, static_cast<uint32_t>(i));
    if (i % 5 == 0) {
      ASSERT_TRUE(t.Delete(static_cast<uint32_t>(i)));
    }
    if ((i & (i - 1)) == 0 || (i & (i + 1)) == 0) {
      ExpectIndexFindsEverySlot(t);  // just before and after a doubling
    }
  }
  ExpectIndexFindsEverySlot(t);
  EXPECT_FALSE(t.Find({Value::Int(1000), Value::Null()}).has_value());
}

TEST(TableRowIndexTest, ResurrectionKeepsTheRowId) {
  Table t(0, "t", IntStrSchema());
  for (int i = 0; i < 10; ++i) {
    Row row{Value::Int(i), Value::Null()};
    ASSERT_OK(t.Insert(row).status());
  }
  ASSERT_TRUE(t.Delete(4));
  Row four{Value::Int(4), Value::Null()};
  EXPECT_FALSE(t.Find(four).has_value());
  Row four_as_double{Value::Double(4.0), Value::Null()};
  auto again = t.Insert(four_as_double);  // coerced to the stored Int(4)
  ASSERT_OK(again.status());
  EXPECT_EQ(again.value().first.row, 4u);
  EXPECT_TRUE(again.value().second);
  EXPECT_EQ(t.NumRows(), 10u);
  EXPECT_EQ(t.row_index().size(), 10u);
  ExpectIndexFindsEverySlot(t);
}

TEST(TableRowIndexTest, WritesToACopyNeverShowInTheOriginal) {
  Table original(0, "t", IntStrSchema());
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(original.Insert({Value::Int(i), Value::String("x")}).status());
  }
  Table copy(original);  // the copy-on-write clone of a shared table
  // Enough new slots to rehash the copy's index, a tombstone and a
  // resurrection.
  for (int i = 6; i < 40; ++i) {
    ASSERT_OK(copy.Insert({Value::Int(i), Value::String("y")}).status());
  }
  ASSERT_TRUE(copy.Delete(0));
  ASSERT_TRUE(original.Delete(1));
  ASSERT_OK(original.Insert({Value::Int(1), Value::String("x")}).status());
  ASSERT_OK(original.Insert({Value::Int(99), Value::String("z")}).status());

  EXPECT_EQ(original.NumRows(), 7u);
  EXPECT_EQ(original.row_index().size(), 7u);
  EXPECT_TRUE(original.Find({Value::Int(0), Value::String("x")}).has_value());
  EXPECT_FALSE(original.Find({Value::Int(6), Value::String("y")}).has_value());
  ExpectIndexFindsEverySlot(original);

  EXPECT_EQ(copy.NumRows(), 40u);
  EXPECT_FALSE(copy.Find({Value::Int(0), Value::String("x")}).has_value());
  EXPECT_FALSE(copy.Find({Value::Int(99), Value::String("z")}).has_value());
  // The copy's slot 6 holds its own row, not the original's (99, 'z').
  EXPECT_EQ(copy.Find({Value::Int(6), Value::String("y")})->row, 6u);
  ExpectIndexFindsEverySlot(copy);
}

// --- Table::Find probe coercion (the row-probe bugfix) --------------------

TEST(TableFindTest, CoercesProbeToCanonicalFormBeforeIndexLookup) {
  Table t(0, "t", IntStrSchema());
  ASSERT_OK(t.Insert({Value::Int(2), Value::String("x")}).status());

  // Canonical probe: found.
  ASSERT_TRUE(t.Find({Value::Int(2), Value::String("x")}).has_value());
  // Double literal against the INT column: the index stores Int(2), so an
  // uncoerced probe hashes differently and used to miss silently.
  auto hit = t.Find({Value::Double(2.0), Value::String("x")});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->row, 0u);
  // Uncoercible and wrong-arity probes are misses, never errors.
  EXPECT_FALSE(t.Find({Value::String("2"), Value::String("x")}).has_value());
  EXPECT_FALSE(t.Find({Value::Int(2)}).has_value());
  // Dead rows stay invisible through the coerced path too.
  ASSERT_TRUE(t.Delete(0));
  EXPECT_FALSE(t.Find({Value::Double(2.0), Value::String("x")}).has_value());
}

TEST(TableFindTest, DeleteWithMixedTypeLiteralActuallyDeletes) {
  // End-to-end regression: DELETE with a double literal on an INT column
  // was a silent no-op (Find missed, nothing matched).
  Database db;
  ASSERT_OK(db.Execute("CREATE TABLE w (a INTEGER, b INTEGER)"));
  ASSERT_OK(db.Execute("INSERT INTO w VALUES (2, 5)"));
  ASSERT_OK(db.Execute("DELETE FROM w WHERE a = 2.0"));
  auto rs = db.Query("SELECT * FROM w");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 0u);
}

// --- ApproxBytes accounting ----------------------------------------------

TEST(TableApproxBytesTest, CountsIndexBucketsStringsAndColumnarView) {
  Table t(0, "t", IntStrSchema());
  size_t empty = t.ApproxBytes();
  // The row index's head array exists even before any insert.
  EXPECT_GT(empty, 0u);

  // Long (heap-allocated) strings must dominate short (SSO) ones.
  Table sso(1, "sso", IntStrSchema());
  Table heap(2, "heap", IntStrSchema());
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(sso.Insert({Value::Int(i), Value::String("ab")}).status());
    ASSERT_OK(heap.Insert({Value::Int(i),
                           Value::String(std::string(128, 'x') +
                                         std::to_string(i))})
                  .status());
  }
  EXPECT_GT(sso.ApproxBytes(), empty);
  EXPECT_GT(heap.ApproxBytes(), sso.ApproxBytes() + 64 * 100);

  // Materializing the columnar view grows the footprint, and the growth is
  // accounted.
  size_t before_view = heap.ApproxBytes();
  auto view = heap.columnar();
  EXPECT_GE(heap.ApproxBytes(), before_view + view->ApproxBytes());
}

}  // namespace
}  // namespace hippo
