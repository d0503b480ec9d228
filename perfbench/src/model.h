// The benchmark's own model of the data: the generators that make each
// workload's instance from a seed, the queries the workloads issue, and the
// closed-form oracle that computes their certain answers.
//
// Every relation is r(a INTEGER, b INTEGER) under the FD a -> b, so a
// repair keeps exactly one tuple per key and keys are independent. Hence,
// with key -> {live b values} per relation:
//   * a tuple is certain in a relation iff its key has exactly one value;
//   * union:        certain in p or certain in q;
//   * difference:   certain in p and absent from q;
//   * intersection: certain in p and certain in q;
//   * (p - q) union (q - p): certain in one side and absent from the other;
//   * the narrowing projection SELECT a FROM p WHERE a >= x AND a < y yields
//     every key in [x, y);
//   * a join pair is certain iff both of its tuples are certain.
// selftest.cc checks these rules against Database::ConsistentAnswersAll-
// Repairs on small instances of every generator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/executor.h"

namespace perfbench {

/// One answer row as plain integers (the generated data has no NULLs).
using IntRow = std::vector<int64_t>;

/// key -> live b values of one FD-keyed relation.
class Relation {
 public:
  void Insert(int64_t a, int64_t b);
  /// No-op when (a, b) is not live.
  void Erase(int64_t a, int64_t b);
  bool Has(int64_t a, int64_t b) const;
  bool Certain(int64_t a, int64_t b) const;
  /// True when key `a` holds exactly one value.
  bool Consistent(int64_t a) const;
  const std::map<int64_t, std::vector<int64_t>>& values() const {
    return values_;
  }

 private:
  std::map<int64_t, std::vector<int64_t>> values_;
};

/// A two-relation instance plus the order its rows were generated in (the
/// load script inserts them in that order).
struct Instance {
  Relation p;
  Relation q;
  std::vector<std::pair<int64_t, int64_t>> p_rows;
  std::vector<std::pair<int64_t, int64_t>> q_rows;

  void AddP(int64_t a, int64_t b);
  void AddQ(int64_t a, int64_t b);
  /// Schema, both FDs, and one INSERT statement per row.
  std::string LoadSql() const;
};

/// prover-sparse / churn-mixed data: keys 0..n-1 in both p and q, q agreeing
/// with p on exactly half of the keys, and exactly n * rate / 2 keys of each
/// relation carrying a second, conflicting value (so about `rate` of the
/// tuples are in conflict pairs).
Instance SparseInstance(size_t n, double rate, uint64_t seed);

/// rewrite-dense data: n tuples of p, a `rate` share of them in blocks of
/// `block` tuples sharing a key (every pair in a block conflicts), the rest
/// on keys of their own; q has keys 0..n-1 with a second value on n / 20 of
/// them.
Instance DenseInstance(size_t n, size_t block, double rate, uint64_t seed);

enum class QueryKind {
  kUnion,
  kDifference,
  kUnionOfDifferences,
  kIntersection,
  kPoint,    ///< SELECT * FROM p WHERE a = x
  kRange,    ///< SELECT * FROM p WHERE a >= x AND a < y
  kStar,     ///< SELECT * FROM p
  kJoin,     ///< SELECT * FROM p, q WHERE p.a = q.a
  kNarrow,   ///< SELECT a FROM p WHERE a >= x AND a < y
  kWindows,  ///< p restricted to [x, y) or [x2, y2)
};

const char* QueryKindName(QueryKind kind);

struct Query {
  QueryKind kind = QueryKind::kStar;
  int64_t x = 0, y = 0, x2 = 0, y2 = 0;

  std::string Sql() const;
};

/// The certain answers of `query` over `data`, sorted.
std::vector<IntRow> CertainAnswers(const Instance& data, const Query& query);

/// `rs` as sorted integer rows (empty rows vector plus false when a cell is
/// not an integer).
bool ToIntRows(const hippo::ResultSet& rs, std::vector<IntRow>* out);

/// Checks answers against the oracle over a model that the caller mutates;
/// expected answers are cached per SQL text until Invalidate().
class Verifier {
 public:
  explicit Verifier(const Instance* model) : model_(model) {}
  void Invalidate() { cache_.clear(); }
  bool Check(const Query& query, const hippo::ResultSet& rs);

 private:
  const Instance* model_;
  std::map<std::string, std::vector<IntRow>> cache_;
};

/// One statement of a commit script on p, as SQL and as its effect on the
/// model.
struct Mutation {
  bool insert = true;
  int64_t a = 0;
  int64_t b = 0;

  std::string Sql() const;
  void ApplyTo(Relation* r) const;
};

/// One commit: its statements, run as one ';'-separated script.
using Script = std::vector<Mutation>;

std::string ScriptSql(const Script& script);

/// The benchmark's own generator (splitmix64), so that its inputs depend
/// only on the seed and on this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0 (the modulo bias is below 2^-40 for
  /// the bounds used here).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Deterministic Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// Picks `count` distinct keys of p in [lo, hi) that currently hold exactly
/// one value, in a seeded order. Fewer when the range has fewer.
std::vector<int64_t> PickConsistentKeys(const Relation& p, int64_t lo,
                                        int64_t hi, size_t count,
                                        Rng* rng);

}  // namespace perfbench
