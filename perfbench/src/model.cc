#include "model.h"

#include <algorithm>
#include <set>

namespace perfbench {

void Relation::Insert(int64_t a, int64_t b) {
  std::vector<int64_t>& vals = values_[a];
  if (std::find(vals.begin(), vals.end(), b) != vals.end()) return;
  vals.push_back(b);
}

void Relation::Erase(int64_t a, int64_t b) {
  auto it = values_.find(a);
  if (it == values_.end()) return;
  auto pos = std::find(it->second.begin(), it->second.end(), b);
  if (pos == it->second.end()) return;
  it->second.erase(pos);
  if (it->second.empty()) values_.erase(it);
}

bool Relation::Has(int64_t a, int64_t b) const {
  auto it = values_.find(a);
  return it != values_.end() &&
         std::find(it->second.begin(), it->second.end(), b) !=
             it->second.end();
}

bool Relation::Certain(int64_t a, int64_t b) const {
  auto it = values_.find(a);
  return it != values_.end() && it->second.size() == 1 && it->second[0] == b;
}

bool Relation::Consistent(int64_t a) const {
  auto it = values_.find(a);
  return it != values_.end() && it->second.size() == 1;
}

void Instance::AddP(int64_t a, int64_t b) {
  p.Insert(a, b);
  p_rows.emplace_back(a, b);
}

void Instance::AddQ(int64_t a, int64_t b) {
  q.Insert(a, b);
  q_rows.emplace_back(a, b);
}

std::string Instance::LoadSql() const {
  std::string sql =
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE TABLE q (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b);"
      "CREATE CONSTRAINT fd_q FD ON q (a -> b)";
  sql.reserve(sql.size() + 40 * (p_rows.size() + q_rows.size()));
  auto add = [&sql](const char* table, int64_t a, int64_t b) {
    sql += ";INSERT INTO ";
    sql += table;
    sql += " VALUES (" + std::to_string(a) + ", " + std::to_string(b) + ")";
  };
  for (const auto& [a, b] : p_rows) add("p", a, b);
  for (const auto& [a, b] : q_rows) add("q", a, b);
  return sql;
}

namespace {

std::vector<int64_t> Iota(size_t n) {
  std::vector<int64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i);
  return keys;
}

}  // namespace

Instance SparseInstance(size_t n, double rate, uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 11);
  std::vector<int64_t> pb(n), qb(n);
  for (size_t k = 0; k < n; ++k) pb[k] = static_cast<int64_t>(rng.Below(1000));
  // q agrees with p on exactly half of the keys.
  std::vector<int64_t> keys = Iota(n);
  Shuffle(&keys, &rng);
  for (size_t i = 0; i < n; ++i) {
    int64_t k = keys[i];
    qb[k] = i < n / 2 ? pb[k] : pb[k] + 5000;
  }
  Instance data;
  for (size_t k = 0; k < n; ++k) data.AddP(static_cast<int64_t>(k), pb[k]);
  for (size_t k = 0; k < n; ++k) data.AddQ(static_cast<int64_t>(k), qb[k]);

  // Conflict partners. Half of them (on keys where p and q disagree) copy
  // the other relation's tuple, so that union, difference and intersection
  // meet tuples that are uncertain on one side and present on the other.
  size_t pairs = static_cast<size_t>(static_cast<double>(n) * rate / 2.0);
  Shuffle(&keys, &rng);
  for (size_t i = 0; i < pairs && i < n; ++i) {
    int64_t k = keys[i];
    bool copy = qb[k] != pb[k] && rng.Below(2) == 0;
    data.AddP(k, copy ? qb[k] : 1000 + static_cast<int64_t>(rng.Below(1000)));
  }
  Shuffle(&keys, &rng);
  for (size_t i = 0; i < pairs && i < n; ++i) {
    int64_t k = keys[i];
    bool copy = qb[k] != pb[k] && rng.Below(2) == 0;
    data.AddQ(k, copy ? pb[k] : 2000 + static_cast<int64_t>(rng.Below(1000)));
  }
  return data;
}

Instance DenseInstance(size_t n, size_t block, double rate, uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 23);
  size_t blocks = static_cast<size_t>(static_cast<double>(n) * rate) / block;
  std::vector<int64_t> keys = Iota(n);
  Shuffle(&keys, &rng);
  Instance data;
  size_t next = 0;
  for (size_t k = 0; k < blocks; ++k, ++next) {
    for (size_t j = 0; j < block; ++j) {
      data.AddP(keys[next], static_cast<int64_t>(j));
    }
  }
  for (size_t id = blocks * block; id < n; ++id, ++next) {
    data.AddP(keys[next], static_cast<int64_t>(rng.Below(997)));
  }
  std::vector<int64_t> qb(n);
  for (size_t k = 0; k < n; ++k) {
    qb[k] = static_cast<int64_t>(rng.Below(997));
    data.AddQ(static_cast<int64_t>(k), qb[k]);
  }
  std::vector<int64_t> qkeys = Iota(n);
  Shuffle(&qkeys, &rng);
  for (size_t i = 0; i < n / 20; ++i) {
    int64_t k = qkeys[i];
    data.AddQ(k, (qb[k] + 1 + static_cast<int64_t>(rng.Below(996))) % 997);
  }
  return data;
}

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kUnion: return "union";
    case QueryKind::kDifference: return "difference";
    case QueryKind::kUnionOfDifferences: return "union-of-differences";
    case QueryKind::kIntersection: return "intersection";
    case QueryKind::kPoint: return "point";
    case QueryKind::kRange: return "range";
    case QueryKind::kStar: return "star";
    case QueryKind::kJoin: return "join";
    case QueryKind::kNarrow: return "narrow";
    case QueryKind::kWindows: return "windows";
  }
  return "?";
}

std::string Query::Sql() const {
  auto s = [](int64_t v) { return std::to_string(v); };
  switch (kind) {
    case QueryKind::kUnion:
      return "SELECT * FROM p UNION SELECT * FROM q";
    case QueryKind::kDifference:
      return "SELECT * FROM p EXCEPT SELECT * FROM q";
    case QueryKind::kUnionOfDifferences:
      return "(SELECT * FROM p EXCEPT SELECT * FROM q) UNION "
             "(SELECT * FROM q EXCEPT SELECT * FROM p)";
    case QueryKind::kIntersection:
      return "SELECT * FROM p INTERSECT SELECT * FROM q";
    case QueryKind::kPoint:
      return "SELECT * FROM p WHERE a = " + s(x);
    case QueryKind::kRange:
      return "SELECT * FROM p WHERE a >= " + s(x) + " AND a < " + s(y);
    case QueryKind::kStar:
      return "SELECT * FROM p";
    case QueryKind::kJoin:
      return "SELECT * FROM p, q WHERE p.a = q.a";
    case QueryKind::kNarrow:
      return "SELECT a FROM p WHERE a >= " + s(x) + " AND a < " + s(y);
    case QueryKind::kWindows:
      return "SELECT * FROM p WHERE (a >= " + s(x) + " AND a < " + s(y) +
             ") OR (a >= " + s(x2) + " AND a < " + s(y2) + ")";
  }
  return "";
}

std::vector<IntRow> CertainAnswers(const Instance& data, const Query& query) {
  const Relation& p = data.p;
  const Relation& q = data.q;
  std::set<IntRow> out;
  auto certain_p_where = [&](auto&& keep) {
    for (const auto& [a, vals] : p.values()) {
      if (vals.size() == 1 && keep(a)) out.insert({a, vals[0]});
    }
  };
  switch (query.kind) {
    case QueryKind::kUnion:
      for (const auto& [a, vals] : p.values()) {
        for (int64_t b : vals) {
          if (p.Certain(a, b) || q.Certain(a, b)) out.insert({a, b});
        }
      }
      for (const auto& [a, vals] : q.values()) {
        for (int64_t b : vals) {
          if (p.Certain(a, b) || q.Certain(a, b)) out.insert({a, b});
        }
      }
      break;
    case QueryKind::kDifference:
      for (const auto& [a, vals] : p.values()) {
        for (int64_t b : vals) {
          if (p.Certain(a, b) && !q.Has(a, b)) out.insert({a, b});
        }
      }
      break;
    case QueryKind::kUnionOfDifferences:
      for (const auto& [a, vals] : p.values()) {
        for (int64_t b : vals) {
          if (p.Certain(a, b) && !q.Has(a, b)) out.insert({a, b});
        }
      }
      for (const auto& [a, vals] : q.values()) {
        for (int64_t b : vals) {
          if (q.Certain(a, b) && !p.Has(a, b)) out.insert({a, b});
        }
      }
      break;
    case QueryKind::kIntersection:
      for (const auto& [a, vals] : p.values()) {
        for (int64_t b : vals) {
          if (p.Certain(a, b) && q.Certain(a, b)) out.insert({a, b});
        }
      }
      break;
    case QueryKind::kPoint:
      certain_p_where([&](int64_t a) { return a == query.x; });
      break;
    case QueryKind::kRange:
      certain_p_where([&](int64_t a) { return a >= query.x && a < query.y; });
      break;
    case QueryKind::kStar:
      certain_p_where([](int64_t) { return true; });
      break;
    case QueryKind::kJoin:
      for (const auto& [a, vals] : p.values()) {
        if (vals.size() != 1) continue;
        auto it = q.values().find(a);
        if (it != q.values().end() && it->second.size() == 1) {
          out.insert({a, vals[0], a, it->second[0]});
        }
      }
      break;
    case QueryKind::kNarrow:
      for (const auto& [a, vals] : p.values()) {
        if (a >= query.x && a < query.y) out.insert({a});
      }
      break;
    case QueryKind::kWindows:
      certain_p_where([&](int64_t a) {
        return (a >= query.x && a < query.y) ||
               (a >= query.x2 && a < query.y2);
      });
      break;
  }
  return {out.begin(), out.end()};
}

bool ToIntRows(const hippo::ResultSet& rs, std::vector<IntRow>* out) {
  out->clear();
  out->reserve(rs.rows.size());
  for (const hippo::Row& row : rs.rows) {
    IntRow ints;
    ints.reserve(row.size());
    for (const hippo::Value& v : row) {
      if (v.type() != hippo::TypeId::kInt) {
        out->clear();
        return false;
      }
      ints.push_back(v.AsInt());
    }
    out->push_back(std::move(ints));
  }
  std::sort(out->begin(), out->end());
  return true;
}

bool Verifier::Check(const Query& query, const hippo::ResultSet& rs) {
  std::string sql = query.Sql();
  auto it = cache_.find(sql);
  if (it == cache_.end()) {
    it = cache_.emplace(sql, CertainAnswers(*model_, query)).first;
  }
  std::vector<IntRow> got;
  return ToIntRows(rs, &got) && got == it->second;
}

std::string Mutation::Sql() const {
  std::string a_s = std::to_string(a), b_s = std::to_string(b);
  if (insert) return "INSERT INTO p VALUES (" + a_s + ", " + b_s + ")";
  return "DELETE FROM p WHERE a = " + a_s + " AND b = " + b_s;
}

std::string ScriptSql(const Script& script) {
  std::string sql;
  for (const Mutation& m : script) {
    if (!sql.empty()) sql += ";";
    sql += m.Sql();
  }
  return sql;
}

void Mutation::ApplyTo(Relation* r) const {
  if (insert) {
    r->Insert(a, b);
  } else {
    r->Erase(a, b);
  }
}

std::vector<int64_t> PickConsistentKeys(const Relation& p, int64_t lo,
                                        int64_t hi, size_t count, Rng* rng) {
  std::vector<int64_t> keys;
  for (int64_t a = lo; a < hi; ++a) {
    if (p.Consistent(a)) keys.push_back(a);
  }
  Shuffle(&keys, rng);
  if (keys.size() > count) keys.resize(count);
  return keys;
}

}  // namespace perfbench
