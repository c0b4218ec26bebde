// FlatTable: a single flat numeric table with named columns — the format
// classical causal inference expects (paper §2, §5.2.1). Unit tables,
// universal tables, and estimator inputs are all FlatTables.

#ifndef CARL_RELATIONAL_FLAT_TABLE_H_
#define CARL_RELATIONAL_FLAT_TABLE_H_

#include <string>
#include <vector>

#include "common/csv.h"
#include "common/result.h"

namespace carl {

class FlatTable {
 public:
  FlatTable() = default;
  explicit FlatTable(std::vector<std::string> column_names)
      : column_names_(std::move(column_names)),
        columns_(column_names_.size()) {}

  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  size_t num_cols() const { return columns_.size(); }

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }

  /// Index of a named column, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const {
    return ColumnIndex(name).ok();
  }

  const std::vector<double>& Column(size_t index) const;
  /// Column by name; dies if missing (use ColumnIndex to probe).
  const std::vector<double>& Column(const std::string& name) const;

  double At(size_t row, size_t col) const { return columns_[col][row]; }

  /// Appends a row; must match num_cols().
  void AddRow(const std::vector<double>& row);

  /// Appends a full column; must match num_rows() (or be the first column).
  void AddColumn(const std::string& name, std::vector<double> values);

  /// The columns from `index` on, as an array to append rows to in place
  /// (the unit table's embed step). Every column must have the same
  /// length again before the table is read.
  std::vector<double>* MutableColumns(size_t index) {
    return columns_.data() + index;
  }

  /// Row subset selection (for strata / bootstrap).
  FlatTable SelectRows(const std::vector<size_t>& row_indices) const;

  /// Keeps rows where `predicate(row_index)` is true.
  template <typename Pred>
  FlatTable Filter(Pred&& predicate) const {
    std::vector<size_t> keep;
    for (size_t r = 0; r < num_rows(); ++r) {
      if (predicate(r)) keep.push_back(r);
    }
    return SelectRows(keep);
  }

  CsvDocument ToCsv() const;

  std::string ToString(size_t max_rows = 10) const;

 private:
  std::vector<std::string> column_names_;
  std::vector<std::vector<double>> columns_;
};

}  // namespace carl

#endif  // CARL_RELATIONAL_FLAT_TABLE_H_
