// A flat chained hash index over row numbers, shared by the batch kernels
// (join, anti-join, dedup and set-operation builds) and by the per-image
// slot index of a table's columnar view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hippo {

/// \brief A flat chained hash index over row numbers [0, num_rows): a
/// power-of-two head array plus one next link and one stored full hash per
/// row, so three allocations per build. It stores no keys: callers pass
/// the hash and a key predicate, called only once the stored hash matched.
/// Insert prepends, so rows inserted in descending order chain ascending —
/// the insertion order the join kernels' output order relies on.
class FlatHashIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  explicit FlatHashIndex(size_t num_rows)
      : next_(num_rows), hashes_(num_rows) {
    unsigned bits = 1;
    while ((size_t{1} << bits) < num_rows) ++bits;
    shift_ = 64 - bits;
    heads_.assign(size_t{1} << bits, kNone);
  }

  /// Links `row` (< num_rows, at most once) under `hash`.
  void Insert(uint32_t row, size_t hash) {
    uint32_t& head = heads_[Bucket(hash)];
    hashes_[row] = hash;
    next_[row] = head;
    head = row;
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

  unsigned shift_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  std::vector<size_t> hashes_;
};

}  // namespace hippo
