// Unit-table construction — Algorithm 1 of the paper (§5.2.1, Table 1).
//
// Given a grounded model, a binary treatment attribute T and a response
// attribute Y on the same unit predicate (after unification, §4.3), each
// unit x contributes one row:
//
//   y                     response value (aggregate nodes aggregate their
//                         — possibly query-filtered — source groundings)
//   t                     the unit's own treatment
//   peer_count            |P(x)|  (relational peers, Def 4.3)
//   peer_treated_count    number of treated peers
//   peer_t_<dim>          ψ(treatments of P(x))        [relational only]
//   own_<Attr>_<dim>      ψ(values of Pa(T[x]) of attribute Attr)
//   peer_<Attr>_<dim>     ψ(values of ∪_{p∈P(x)} Pa(T[p]) of Attr)
//
// The covariate columns realize the sufficient adjustment set of Theorem
// 5.2 (parents of the treated units' treatment nodes), embedded per §5.2.2.
//
// How a table is built: two steps, resolve then embed.
//
// Resolve (ResolveUnitRows) walks the units in row order, from graph to
// resolved rows (UnitRows). Per unit, a traversal over Parents from the
// response grounding(s) collects the peers, marking visited nodes in an
// array of epoch stamps over node ids that is bumped per unit instead of
// cleared. The traversal is lifted to the model: the request computes
// the attributes the treatment reaches in the model's attribute graph
// (an edge body -> head per causal-rule body ref, source -> head per
// aggregate rule), and the search enters only nodes of those
// attributes. Every ground edge instantiates a rule edge, so no ground
// path T[p] -> Y[x] leaves that set and the peers are exactly those of
// the full ancestor walk; the unit_table.nodes_expanded counter records
// how many nodes it visits. The unit's fate (kept, or dropped for a
// missing value or for having no peer) is decided before it appends
// anything. A kept unit reads each value once and appends it straight to
// its column group — y, t, its peers' treatments (sorted peers), and its
// own and peer covariates per attribute (first-occurrence order, each
// node once across both lists) — each group one flat value array with
// per-row ends and its widest row. The loop resumes: UnitRows records
// how many unit rows it has resolved, and a fresh build is a resume from
// row 0.
//
// Embed (EmbedUnitRows) fits each group on its widest row and projects
// it by one Embedding::ApplyRows call, which writes each column once. It
// reads the rows and never changes them, so one UnitRows serves every
// embedding. It appends: a table embedded from a prefix of the rows gets
// only the projections of rows [table rows, kept rows), unless those
// rows change the column list (a covariate attribute first seen, the
// table turning relational, or a padding width growing), which re-embeds
// every row. A fresh embed is an append from row 0.
//
// Why the split: a row reads only the reached ancestors of Y[x],
// Parents(T[x]) and Parents(T[p]) of its peers, which are ancestors of
// Y[x] too. An extend seeds its forward cone with every node that gained
// a parent or a value, and the cone closes over children, so a row the
// extend could change has T[x] or Y[x] in the cone. QuerySession keeps
// the rows per grounding and request, and per embedding kind their table
// with the X'X/X'y sums of its regression columns: a repeat hands out the
// table, and after an extend whose cone misses every resolved unit
// (UnitRowsOutsideExtendCone) the loop resumes at the first new unit row,
// the table appends those rows and the sums carry on over them.
// BuildUnitTable is the memo-free reference: resolve from row 0, then
// embed into an empty table.
//
// The thread count never reaches the build. The unit tuples land in one
// arity-strided arena, so with the mean or moments embedding a build's
// allocation count does not grow with rows beyond amortized vector
// growth; median and padding also sort a copy of each group they
// project.

#ifndef CARL_CORE_UNIT_TABLE_H_
#define CARL_CORE_UNIT_TABLE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/embedding.h"
#include "core/grounding.h"
#include "relational/binding_table.h"
#include "relational/flat_table.h"
#include "stats/ols.h"

namespace carl {

struct UnitTableOptions {
  EmbeddingKind embedding = EmbeddingKind::kMean;
  /// Keep units with no relational peers (always kept for plain ATE
  /// queries; peer-effect queries typically drop them).
  bool include_isolated_units = true;
};

struct UnitTableRequest {
  /// Treatment attribute (binary) in the extended schema.
  AttributeId treatment = kInvalidAttribute;
  /// Response attribute: either a base attribute on the treatment's
  /// predicate or an aggregate-defined attribute on that predicate.
  AttributeId response = kInvalidAttribute;
  /// When set, only these groundings of the response *source* attribute
  /// (for aggregate responses) or of the response itself (base responses)
  /// are used — the query's WHERE filter. Stored as the evaluator's
  /// columnar binding table; membership tests probe its span index
  /// directly (no owned key tuples).
  std::optional<BindingTable> allowed_sources;
};

/// The flat single-table output of Algorithm 1, plus column bookkeeping.
/// The data columns come in the order y, t, [peer_count,
/// peer_treated_count, peer_t_*], own_<Attr>_*, peer_<Attr>_* (attributes
/// ascending, peer ones only on a relational table).
struct UnitTable {
  FlatTable data;
  /// Unit tuples, one per data row, in one arity-strided arena: row r's
  /// unit is unit_args[r * unit_arity, (r + 1) * unit_arity).
  std::vector<SymbolId> unit_args;
  size_t unit_arity = 0;
  /// The unit tuples as rows parallel to the data rows.
  RelationView units() const {
    return RelationView(unit_args.data(), unit_arity,
                        unit_arity == 0 ? 0 : unit_args.size() / unit_arity);
  }

  std::string y_col = "y";
  std::string t_col = "t";
  std::string peer_count_col;          ///< set iff relational
  std::string peer_treated_count_col;  ///< set iff relational
  std::vector<std::string> peer_t_cols;
  std::vector<std::string> own_covariate_cols;
  std::vector<std::string> peer_covariate_cols;

  /// True if any unit has at least one relational peer.
  bool relational = false;
  /// Units dropped for missing treatment/response values or, when
  /// isolated units are excluded, for having no relational peer.
  size_t dropped_units = 0;
  /// The fitted embedding used for the peers' treatment vector; needed by
  /// estimators to evaluate ψ under counterfactual peer assignments.
  std::shared_ptr<const Embedding> peer_t_embedding;
  EmbeddingKind embedding_kind = EmbeddingKind::kMean;
  /// X'X and X'y of the regression columns (SumRegressionColumns,
  /// estimation.h) over rows [0, sums.rows): QuerySession keeps them over
  /// every row of the tables it hands out; a memo-free table leaves them
  /// empty.
  OlsSums sums;

  std::vector<std::string> AllCovariateCols() const;
  /// Heap bytes the columns, units and sums hold (vector capacities).
  size_t bytes() const;
};

/// Algorithm 1's resolved rows before any embedding: the state of the
/// resolve loop after units_resolved unit rows.
struct UnitRows {
  /// One column group, flattened: row r's values are
  /// values[ends[r - 1], ends[r]) (from 0 for r = 0).
  struct Group {
    std::vector<double> values;
    std::vector<size_t> ends;
    /// The most values any row holds: what a padding embedding fits to.
    size_t widest = 0;

    /// Closes the current row.
    void EndRow() {
      const size_t begin = ends.empty() ? 0 : ends.back();
      widest = std::max(widest, values.size() - begin);
      ends.push_back(values.size());
    }
  };

  /// One role's (own or peer) covariate groups, indexed by attribute. An
  /// attribute first seen at row r gets empty rows [0, r).
  struct CovariateGroups {
    std::vector<Group> by_attr;
    std::vector<AttributeId> present;  // ascending

    void Add(AttributeId attr, size_t row, double value);
    /// Closes the current row in every present attribute's group.
    void EndRow() {
      for (AttributeId attr : present) by_attr[attr].EndRow();
    }
  };

  std::vector<double> y;
  std::vector<double> t;
  /// The kept units' tuples, arity-strided as in UnitTable.
  std::vector<SymbolId> unit_args;
  size_t unit_arity = 0;
  /// The kept units' tuples as rows parallel to y.
  RelationView units() const {
    return RelationView(unit_args.data(), unit_arity, y.size());
  }
  Group peer_t;  ///< the peers' treatment values
  CovariateGroups own;
  CovariateGroups peer;
  size_t dropped_unvalued = 0;  ///< no treatment or response value
  size_t dropped_isolated = 0;  ///< valued, but without a relational peer
  bool relational = false;      ///< some kept unit has a peer
  /// Unit rows of the treatment's predicate resolved so far, kept or
  /// dropped: rows [0, units_resolved).
  size_t units_resolved = 0;

  /// Heap bytes the rows hold (vector capacities).
  size_t bytes() const;
};

/// The resolve step: resolves the unit rows [rows->units_resolved,
/// NumRows) of the treatment's predicate on `grounded` and appends them
/// to `rows`, which must hold rows resolved for the same request and
/// include_isolated_units on a grounding that agrees with `grounded` on
/// every one of them (a default UnitRows resolves every row). Fails like
/// BuildUnitTable, with a guard stop (fault site unit_table.resolve), and
/// when `grounded` lacks a node for some unit row or `rows` resolved more
/// units than the instance holds; `rows` then may hold a partial append
/// and must be discarded.
Status ResolveUnitRows(const GroundedModel& grounded,
                       const UnitTableRequest& request,
                       const UnitTableOptions& options, UnitRows* rows);

/// OK when `rows` kept some unit, else the FailedPrecondition naming
/// what dropped them: missing values, or (without include_isolated_units)
/// no relational peer.
Status CheckUnitsKept(const UnitRows& rows);

/// The embed step: brings `table` up to `rows` under `options`'
/// embedding. `table` must be empty or embedded from a prefix of `rows`
/// under the same embedding. When the rows produce the table's column list,
/// only rows [table rows, kept rows) are projected and appended; else
/// every row is re-embedded and the sums start over. Fails like
/// CheckUnitsKept and then leaves `table` unchanged.
Status EmbedUnitRows(const UnitRows& rows, const Schema& schema,
                     const UnitTableOptions& options, UnitTable* table);

/// True when `rows`, resolved for `request` on the grounding that
/// `grounded` was extended from, hold on `grounded` too: no resolved
/// unit's treatment or response node lies in that extend's cone
/// (GroundedModel::InExtendCone). Fails when `grounded` has fewer of
/// those nodes than `rows` resolved units.
Result<bool> UnitRowsOutsideExtendCone(const GroundedModel& grounded,
                                       const UnitTableRequest& request,
                                       const UnitRows& rows);

/// Runs Algorithm 1 without a memo: resolve from row 0, then embed.
/// Fails if the response is not on the treatment's predicate (unify
/// first), if the treatment is not binary 0/1, or if no unit is kept;
/// that message names what dropped them: missing values, or (without
/// include_isolated_units) no relational peer.
Result<UnitTable> BuildUnitTable(const GroundedModel& grounded,
                                 const UnitTableRequest& request,
                                 const UnitTableOptions& options = {});

/// Theorem 5.2's relational adjustment criterion (eq. 29), true iff every
/// unit of `units` passes (the identifiability witness): with Z = the
/// observed, valued parents of the treatment nodes of the unit and its
/// peers, and conditioning additionally on those treatment nodes, the
/// unit's response grounding(s) must be d-separated from *all* parents
/// (observed or latent) of those treatment nodes. The request is planned
/// once and one resolver serves every unit; the d-separation runs only
/// when some parent lies outside the conditioning set, on one DSeparation
/// shared by the units. Fails like BuildUnitTable, with a guard stop, and
/// with NotFound for a unit lacking a treatment or response value.
Result<bool> CheckAdjustmentCriterion(const GroundedModel& grounded,
                                      const UnitTableRequest& request,
                                      RelationView units);

}  // namespace carl

#endif  // CARL_CORE_UNIT_TABLE_H_
