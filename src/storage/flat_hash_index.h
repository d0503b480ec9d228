// A flat chained hash index over row numbers, shared by the batch kernels
// (join, anti-join, dedup and set-operation builds) and by every table as
// its full-row index over its slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hippo {

/// \brief A flat chained hash index over row numbers [0, size()): a
/// power-of-two head array plus one next link and one stored full hash per
/// row, so three allocations per build. It stores no keys: callers pass
/// the hash and a key predicate, called only once the stored hash matched.
///
/// Two ways to fill it. A build sized up front links rows with Insert;
/// Insert prepends, so rows inserted in descending order chain ascending —
/// the insertion order the join kernels' output order relies on. A
/// growing index (a table's row index) adds rows with Append, which
/// doubles the head array when the rows outnumber it; its chains keep no
/// particular order.
class FlatHashIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  explicit FlatHashIndex(size_t num_rows = 0)
      : next_(num_rows), hashes_(num_rows) {
    SetBuckets(num_rows);
  }

  /// Number of rows the index covers.
  size_t size() const { return next_.size(); }

  /// Links `row` (< size(), at most once) under `hash`.
  void Insert(uint32_t row, size_t hash) {
    hashes_[row] = hash;
    Link(row);
  }

  /// Adds row size() under `hash` and returns its number.
  uint32_t Append(size_t hash) {
    const auto row = static_cast<uint32_t>(next_.size());
    next_.push_back(kNone);
    hashes_.push_back(hash);
    if (next_.size() > heads_.size()) {
      SetBuckets(2 * heads_.size());
      for (uint32_t r = row + 1; r-- > 0;) Link(r);
    } else {
      Link(row);
    }
    return row;
  }

  /// First row stored under `hash` for which `eq(row)` holds — after row
  /// `after` of that chain when given (a previous result) — or kNone.
  template <typename Eq>
  uint32_t Find(size_t hash, const Eq& eq, uint32_t after = kNone) const {
    uint32_t row = after == kNone ? heads_[Bucket(hash)] : next_[after];
    for (; row != kNone; row = next_[row]) {
      if (hashes_[row] == hash && eq(row)) return row;
    }
    return kNone;
  }

  /// Bytes held by the three arrays.
  size_t ApproxBytes() const {
    return heads_.capacity() * sizeof(uint32_t) +
           next_.capacity() * sizeof(uint32_t) +
           hashes_.capacity() * sizeof(size_t);
  }

 private:
  size_t Bucket(size_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// Empties the head array, resized to the power of two >= `rows` (>= 2).
  void SetBuckets(size_t rows) {
    unsigned bits = 1;
    while ((size_t{1} << bits) < rows) ++bits;
    shift_ = 64 - bits;
    heads_.assign(size_t{1} << bits, kNone);
  }

  void Link(uint32_t row) {
    uint32_t& head = heads_[Bucket(hashes_[row])];
    next_[row] = head;
    head = row;
  }

  unsigned shift_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  std::vector<size_t> hashes_;
};

}  // namespace hippo
