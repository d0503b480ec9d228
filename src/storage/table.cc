#include "storage/table.h"

#include "common/str_util.h"

namespace hippo {

size_t TableColumns::ApproxBytes() const {
  size_t bytes = sizeof(TableColumns);
  for (const ColumnVectorPtr& c : columns) {
    bytes += sizeof(ColumnVector) + c->ApproxBytes();
  }
  if (rowids) bytes += sizeof(ColumnVector) + rowids->ApproxBytes();
  if (slot_index_built_.load(std::memory_order_acquire)) {
    bytes += slot_index_.ApproxBytes();
  }
  return bytes;
}

const FlatHashIndex& TableColumns::SlotIndex() const {
  std::call_once(slot_index_once_, [this] {
    FlatHashIndex index(num_slots);
    for (size_t i = num_slots; i-- > 0;) {
      size_t hash = columns.size();  // seeded like HashRow
      for (const ColumnVectorPtr& c : columns) HashCombine(&hash, c->HashAt(i));
      index.Insert(static_cast<uint32_t>(i), hash);
    }
    slot_index_ = std::move(index);
    slot_index_built_.store(true, std::memory_order_release);
  });
  return slot_index_;
}

Table::Table(const Table& other)
    : id_(other.id_),
      name_(other.name_),
      schema_(other.schema_),
      rows_(other.rows_),
      live_(other.live_),
      num_live_(other.num_live_),
      index_(other.index_) {
  std::lock_guard<std::mutex> lock(other.columnar_mu_);
  columnar_ = other.columnar_;  // same slots -> same immutable image
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  id_ = other.id_;
  name_ = other.name_;
  schema_ = other.schema_;
  rows_ = other.rows_;
  live_ = other.live_;
  num_live_ = other.num_live_;
  index_ = other.index_;
  std::shared_ptr<const TableColumns> view;
  {
    std::lock_guard<std::mutex> lock(other.columnar_mu_);
    view = other.columnar_;
  }
  std::lock_guard<std::mutex> lock(columnar_mu_);
  columnar_ = std::move(view);
  return *this;
}

Result<Row> Table::CoerceRow(const Row& values) const {
  if (values.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(StrFormat(
        "INSERT into %s: expected %zu values, got %zu", name_.c_str(),
        schema_.NumColumns(), values.size()));
  }
  Row coerced;
  coerced.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    HIPPO_ASSIGN_OR_RETURN(Value v, values[i].CastTo(schema_.column(i).type));
    coerced.push_back(std::move(v));
  }
  return coerced;
}

Result<std::pair<RowId, bool>> Table::Insert(const Row& values) {
  HIPPO_ASSIGN_OR_RETURN(Row coerced, CoerceRow(values));
  auto it = index_.find(coerced);
  if (it != index_.end()) {
    uint32_t idx = it->second;
    if (live_[idx]) {
      return std::make_pair(RowId{id_, idx}, false);
    }
    // Resurrect the tombstoned slot: same fact, same RowId. The columnar
    // image stays valid — it carries every slot, live or not.
    live_[idx] = true;
    ++num_live_;
    return std::make_pair(RowId{id_, idx}, true);
  }
  uint32_t idx = static_cast<uint32_t>(rows_.size());
  index_.emplace(coerced, idx);
  rows_.push_back(std::move(coerced));
  live_.push_back(true);
  ++num_live_;
  InvalidateColumnar();  // a new slot extends the image
  return std::make_pair(RowId{id_, idx}, true);
}

bool Table::Delete(uint32_t row_index) {
  if (row_index >= live_.size() || !live_[row_index]) return false;
  live_[row_index] = false;
  --num_live_;
  return true;
}

std::optional<RowId> Table::Find(const Row& values) const {
  // The index stores rows in canonical (schema-coerced) form; probing with
  // the caller's literal types would silently miss e.g. Double(2.0) against
  // an INT column stored as Int(2). Coerce first — cheap fast path when the
  // probe already matches the schema.
  bool canonical = values.size() == schema_.NumColumns();
  for (size_t i = 0; canonical && i < values.size(); ++i) {
    canonical = values[i].is_null() ||
                values[i].type() == schema_.column(i).type;
  }
  if (canonical) {
    auto it = index_.find(values);
    if (it == index_.end() || !live_[it->second]) return std::nullopt;
    return RowId{id_, it->second};
  }
  Result<Row> coerced = CoerceRow(values);
  // Wrong arity or an uncoercible value cannot name a stored row: a miss.
  if (!coerced.ok()) return std::nullopt;
  auto it = index_.find(coerced.value());
  if (it == index_.end() || !live_[it->second]) return std::nullopt;
  return RowId{id_, it->second};
}

void Table::Clear() {
  rows_.clear();
  live_.clear();
  num_live_ = 0;
  index_.clear();
  InvalidateColumnar();
}

void Table::InvalidateColumnar() {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  columnar_.reset();
}

std::shared_ptr<const TableColumns> Table::columnar() const {
  {
    std::lock_guard<std::mutex> lock(columnar_mu_);
    if (columnar_) return columnar_;
  }
  // Build outside the lock (read-only over rows_; concurrent builders may
  // race benignly and one image wins — they are identical).
  auto view = std::make_shared<TableColumns>();
  view->num_slots = rows_.size();
  view->columns.reserve(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    auto col = std::make_shared<ColumnVector>(schema_.column(c).type);
    col->Reserve(rows_.size());
    for (const Row& r : rows_) col->AppendValue(r[c]);
    view->columns.push_back(std::move(col));
  }
  auto rowids = std::make_shared<ColumnVector>(TypeId::kInt);
  rowids->Reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    rowids->AppendValue(Value::Int(static_cast<int64_t>(i)));
  }
  view->rowids = std::move(rowids);

  std::lock_guard<std::mutex> lock(columnar_mu_);
  if (!columnar_) columnar_ = std::move(view);
  return columnar_;
}

namespace {

constexpr size_t kSsoCapacity = 15;  // typical libstdc++/libc++ SSO buffer

size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row) + row.capacity() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == TypeId::kString) {
      // Short strings live inside the Value's SSO buffer (already counted
      // via sizeof(Value)); only longer ones own heap storage (+ NUL).
      size_t cap = v.AsString().capacity();
      if (cap > kSsoCapacity) bytes += cap + 1;
    }
  }
  return bytes;
}

}  // namespace

size_t Table::ApproxBytes() const {
  size_t bytes = sizeof(Table) + name_.capacity();
  bytes += schema_.NumColumns() * sizeof(Column);
  for (const Row& row : rows_) bytes += ApproxRowBytes(row);
  bytes += live_.capacity() / 8;
  // The index stores a second copy of every row plus node and bucket-array
  // overhead; the bucket array scales with bucket_count(), not size().
  for (const auto& [row, idx] : index_) {
    (void)idx;
    bytes += ApproxRowBytes(row) + sizeof(uint32_t) + 2 * sizeof(void*);
  }
  bytes += index_.bucket_count() * sizeof(void*);
  // The memoized columnar view owns its own typed buffers.
  std::shared_ptr<const TableColumns> view;
  {
    std::lock_guard<std::mutex> lock(columnar_mu_);
    view = columnar_;
  }
  if (view) bytes += view->ApproxBytes();
  return bytes;
}

}  // namespace hippo
