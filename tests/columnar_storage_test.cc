// Tests for the columnar batch layer and the Table fixes that ride along
// with it: ColumnVector/ColumnBatch value fidelity (hash/equality/compare
// parity with Value), the lazily-materialized columnar view and its
// invalidation rules, Table::Find's probe coercion (mixed-type literals
// must locate canonical rows — previously a silent index miss), and the
// ApproxBytes accounting (index bucket array, SSO-aware strings, columnar
// view buffers).
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

TEST(TableColumnarViewTest, SlotIndexIsBuiltOncePerImageAndFindsEverySlot) {
  Table t(0, "t", IntStrSchema());
  ASSERT_OK(t.Insert({Value::Int(1), Value::String("x")}).status());
  ASSERT_OK(t.Insert({Value::Int(2), Value::Null()}).status());
  ASSERT_OK(t.Insert({Value::Null(), Value::String("x")}).status());
  ASSERT_TRUE(t.Delete(1));
  auto view = t.columnar();
  size_t before = view->ApproxBytes();
  const FlatHashIndex& index = view->SlotIndex();
  EXPECT_GT(view->ApproxBytes(), before);
  // Every slot, tombstoned or not, is found under its row's HashRow.
  for (uint32_t slot = 0; slot < 3; ++slot) {
    auto same = [&](uint32_t r) {
      return RowEq()(t.row(r), t.row(slot));
    };
    EXPECT_EQ(index.Find(HashRow(t.row(slot)), same), slot);
  }
  // One build per image: the view, a table copy and a resurrection share it.
  EXPECT_EQ(&view->SlotIndex(), &index);
  Table copy(t);
  EXPECT_EQ(&copy.columnar()->SlotIndex(), &index);
  ASSERT_OK(t.Insert({Value::Int(2), Value::Null()}).status());
  EXPECT_EQ(&t.columnar()->SlotIndex(), &index);
  // A new slot means a new image, indexed afresh.
  ASSERT_OK(t.Insert({Value::Int(3), Value::String("z")}).status());
  auto rebuilt = t.columnar();
  auto is_new = [&](uint32_t r) { return r == 3; };
  EXPECT_EQ(rebuilt->SlotIndex().Find(HashRow(t.row(3)), is_new), 3u);
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
  // The hash index's bucket array exists even before any insert.
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
