// Grounding: expressing "tuple t belongs to Q(repair)" as a propositional
// formula over base-relation facts.
//
// Because the supported query class contains no existential quantification
// (projections are permutations), the membership of t in every subexpression
// is decided by t itself (split across products); see Grounder for the
// recursion. A fact absent from the database grounds to FALSE, since repairs
// only delete tuples. The truth value of a literal in a repair is "the fact
// survived". Formulas touching a conflicting fact are converted to CNF and
// each clause checked by the Prover; the others are decided on the spot.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "plan/logical_plan.h"
#include "storage/column_batch.h"
#include "storage/table.h"

namespace hippo::cqa {

/// \brief A ground propositional formula over database facts.
struct GroundFormula {
  enum class Kind : uint8_t { kConst, kLit, kNot, kAnd, kOr };

  Kind kind = Kind::kConst;
  bool const_value = false;          ///< for kConst
  RowId fact{};                      ///< for kLit (always an existing row)
  std::vector<GroundFormula> children;

  static GroundFormula True() { return Constant(true); }
  static GroundFormula False() { return Constant(false); }
  static GroundFormula Constant(bool v) {
    GroundFormula f;
    f.kind = Kind::kConst;
    f.const_value = v;
    return f;
  }
  static GroundFormula Lit(RowId fact) {
    GroundFormula f;
    f.kind = Kind::kLit;
    f.fact = fact;
    return f;
  }
  /// Constant-folding connectives.
  static GroundFormula Not(GroundFormula a);
  static GroundFormula And(GroundFormula a, GroundFormula b);
  static GroundFormula Or(GroundFormula a, GroundFormula b);

  bool IsConst() const { return kind == Kind::kConst; }

  /// Evaluates under a truth assignment for facts.
  bool Eval(const std::function<bool(RowId)>& truth) const;

  /// Collects the distinct facts mentioned.
  void CollectFacts(std::vector<RowId>* out) const;

  std::string ToString() const;
};

/// \brief Answers "does base table `table_id` contain this fact, and at
/// which RowId?" during grounding.
///
/// The fact is read straight off a candidate batch: its cell k is column
/// `cols[k]` of logical row `row` of `batch`. The two implementations
/// realize the paper's two modes: issuing membership queries against the
/// database engine (base system) vs. answering from structures gathered
/// alongside the envelope (knowledge gathering).
class MembershipProvider {
 public:
  virtual ~MembershipProvider() = default;
  virtual Result<std::optional<RowId>> Lookup(
      uint32_t table_id, const ColumnBatch& batch, size_t row,
      const std::vector<uint32_t>& cols) = 0;
  /// Number of membership requests served.
  virtual size_t NumLookups() const = 0;
};

/// \brief What a candidate's constant-folded ground formula amounts to,
/// computed without building it.
struct GroundSummary {
  /// The formula folded to a constant (GroundFormula::IsConst).
  bool is_const = false;
  /// Its constant, or its value with every fact present (Eval of "true").
  bool value = false;
  /// Some fact of the folded formula is in a conflict.
  bool conflicting = false;
};

/// \brief A bound SJUD plan compiled for grounding: every node's columns
/// resolved to columns of the candidate (the plan's output row) through
/// the safe projections and product splits, so candidates are grounded
/// straight off the envelope's ColumnBatch. Immutable once built; one
/// program serves every prover worker of a query.
class GroundProgram {
 public:
  /// `plan` must pass CheckSjudSupported and outlive the program, which
  /// points at its predicates; a root SortNode is skipped.
  explicit GroundProgram(const PlanNode& plan);

 private:
  friend class Grounder;

  struct Node {
    PlanKind kind = PlanKind::kScan;
    uint32_t table_id = 0;            ///< kScan
    const Expr* predicate = nullptr;  ///< kFilter / kJoin, over `cols`
    /// Candidate column of each of the node's columns.
    std::vector<uint32_t> cols;
    /// kProject: candidate columns that must hold equal values (two output
    /// columns read the same input column).
    std::vector<std::pair<uint32_t, uint32_t>> agree;
    size_t child[2] = {0, 0};
  };

  size_t Compile(const PlanNode& node, std::vector<uint32_t> cols);

  std::vector<Node> nodes_;  ///< post-order; the root is nodes_.back()
};

/// \brief Grounds candidates against a GroundProgram:
///
///   t ∈ R          ↦  literal over the fact R(t), FALSE when absent
///   t ∈ σθ(E)      ↦  FALSE unless θ(t), then t ∈ E (no lookups on FALSE)
///   t ∈ π(E)       ↦  t' ∈ E, t' the inverse image of t
///   t ∈ E1 × E2    ↦  (t1 ∈ E1) ∧ (t2 ∈ E2), right skipped on a FALSE left
///   t ∈ E1 ∪ E2    ↦  (t ∈ E1) ∨ (t ∈ E2), right skipped on a TRUE left
///   t ∈ E1 − E2    ↦  (t ∈ E1) ∧ ¬(t ∈ E2), right skipped on a FALSE left
///   t ∈ E1 ∩ E2    ↦  (t ∈ E1) ∧ (t ∈ E2), right skipped on a FALSE left
///
/// Probe walks that order once, recording every membership answer, and
/// folds it into a GroundSummary; Formula replays the recorded answers to
/// build the GroundFormula, so a candidate is probed once whether or not
/// its formula is needed. One Grounder per thread.
class Grounder {
 public:
  Grounder(const GroundProgram& program, MembershipProvider* membership)
      : program_(program), membership_(membership) {}

  /// Probes candidate `row` of `batch` (the plan's output columns). With
  /// a null `graph` no fact is looked up in it and the summary's
  /// `conflicting` stays false — for callers that do not filter.
  Result<GroundSummary> Probe(const ColumnBatch& batch, size_t row,
                              const ConflictHypergraph* graph);

  /// The folded formula of the candidate last passed to Probe.
  GroundFormula Formula(const ColumnBatch& batch, size_t row) const;

 private:
  template <typename Algebra, typename Facts>
  typename Algebra::F Walk(size_t node, const ColumnBatch& batch,
                           uint32_t phys, const Algebra& algebra,
                           Facts& facts) const;

  const GroundProgram& program_;
  MembershipProvider* membership_;
  /// Membership answers of the last Probe, in walk order.
  std::vector<std::optional<RowId>> facts_;
};

}  // namespace hippo::cqa
