// Embedding functions ψ (paper §4.1 eq. 17 and §5.2.2).
//
// Different groundings of the same attribute can have different numbers of
// parents (e.g. papers have varying author counts); structural homogeneity
// is recovered by projecting each variable-size parent vector into a fixed,
// low-dimensional embedding. The paper evaluates four strategies, all
// implemented here and ablated in the Table 5 / Fig 10 benches:
//   * mean + cardinality,
//   * median + cardinality,
//   * moment summary (mean, variance, skewness, ... + cardinality),
//   * padding with an out-of-band marker to a fixed width.
//
// The unit table (Algorithm 1) keeps every group of a column in one flat
// value array with per-row ends, and projects a column's rows [first,
// rows) in one ApplyRows call that appends to its columns, writing each
// element once: a fresh table projects from row 0, and an append only the
// new rows. Each strategy's core is the span form Apply, which reads n
// values and writes exactly dims() outputs; ApplyRows loops it by
// default, and mean and median (one aggregate plus the count) override it
// with a loop that makes no virtual call per row. Row r's outputs are
// bit-identical to Apply's on row r's group. The mean and moments
// strategies project without allocating; median and padding sort a copy
// of the group. The vector Apply is a convenience forwarder for cold
// callers and tests.

#ifndef CARL_CORE_EMBEDDING_H_
#define CARL_CORE_EMBEDDING_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace carl {

enum class EmbeddingKind { kMean, kMedian, kMoments, kPadding };

const char* EmbeddingKindToString(EmbeddingKind kind);
Result<EmbeddingKind> ParseEmbeddingKind(const std::string& name);

struct EmbeddingOptions {
  /// Number of moments for kMoments (>= 1).
  int moments = 3;
  /// Hard cap on padding width (the paper notes padding grows with the
  /// relational skeleton, limiting its applicability).
  size_t padding_max_width = 32;
  /// Out-of-band marker used to pad short vectors.
  double padding_value = -1.0;
};

/// Strategy interface mapping a variable-size value vector to a fixed
/// number of dimensions. Fit() runs before any Apply() so data-dependent
/// strategies (padding width) can size themselves.
class Embedding {
 public:
  virtual ~Embedding() = default;
  virtual EmbeddingKind kind() const = 0;
  /// Sizes the strategy from the widest group it will project — the only
  /// population statistic any strategy reads (default: no-op).
  virtual void Fit(size_t widest_group);
  virtual size_t dims() const = 0;
  /// Short per-dimension suffixes, e.g. {"mean", "count"}.
  virtual std::vector<std::string> DimNames() const = 0;
  /// Projects the `n` values at `values` into out[0, dims()). Groups
  /// larger than a fitted padding width are truncated (values sorted
  /// descending first).
  virtual void Apply(const double* values, size_t n, double* out) const = 0;
  /// Projects the groups of rows [first, rows), stored flat — row r's
  /// group is values[ends[r - 1], ends[r]) (from 0 for r = 0) —
  /// appending row r's d-th output to cols[d] for d in [0, dims()),
  /// exactly as Apply on each group would. Reserve the columns first and
  /// each element is written once. The default loops Apply.
  virtual void ApplyRows(const double* values, const size_t* ends,
                         size_t first, size_t rows,
                         std::vector<double>* cols) const;
  /// Vector form of Apply: returns exactly dims() values.
  std::vector<double> Apply(const std::vector<double>& values) const;
};

std::unique_ptr<Embedding> MakeEmbedding(EmbeddingKind kind,
                                         const EmbeddingOptions& options = {});

}  // namespace carl

#endif  // CARL_CORE_EMBEDDING_H_
