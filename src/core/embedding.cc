#include "core/embedding.h"

#include <algorithm>

#include "common/logging.h"
#include "common/str_util.h"
#include "relational/aggregates.h"

namespace carl {

const char* EmbeddingKindToString(EmbeddingKind kind) {
  switch (kind) {
    case EmbeddingKind::kMean: return "mean";
    case EmbeddingKind::kMedian: return "median";
    case EmbeddingKind::kMoments: return "moments";
    case EmbeddingKind::kPadding: return "padding";
  }
  return "?";
}

Result<EmbeddingKind> ParseEmbeddingKind(const std::string& name) {
  std::string upper = ToUpper(name);
  if (upper == "MEAN" || upper == "AVG") return EmbeddingKind::kMean;
  if (upper == "MEDIAN") return EmbeddingKind::kMedian;
  if (upper == "MOMENTS" || upper == "MOMENT") return EmbeddingKind::kMoments;
  if (upper == "PADDING" || upper == "PAD") return EmbeddingKind::kPadding;
  return Status::InvalidArgument("unknown embedding: " + name);
}

void Embedding::Fit(size_t) {}

void Embedding::ApplyRows(const double* values, const size_t* ends,
                          size_t first, size_t rows,
                          std::vector<double>* cols) const {
  std::vector<double> out(dims());
  size_t begin = first == 0 ? 0 : ends[first - 1];
  for (size_t r = first; r < rows; ++r) {
    Apply(values + begin, ends[r] - begin, out.data());
    for (size_t d = 0; d < out.size(); ++d) cols[d].push_back(out[d]);
    begin = ends[r];
  }
}

std::vector<double> Embedding::Apply(const std::vector<double>& values) const {
  std::vector<double> out(dims());
  Apply(values.data(), values.size(), out.data());
  return out;
}

namespace {

class AggregatePlusCountEmbedding : public Embedding {
 public:
  AggregatePlusCountEmbedding(EmbeddingKind kind, AggregateKind agg,
                              std::string dim_name)
      : kind_(kind), agg_(agg), dim_name_(std::move(dim_name)) {}

  EmbeddingKind kind() const override { return kind_; }
  size_t dims() const override { return 2; }
  std::vector<std::string> DimNames() const override {
    return {dim_name_, "count"};
  }
  void Apply(const double* values, size_t n, double* out) const override {
    out[0] = ApplyAggregate(agg_, values, n);
    out[1] = static_cast<double>(n);
  }
  void ApplyRows(const double* values, const size_t* ends, size_t first,
                 size_t rows, std::vector<double>* cols) const override {
    std::vector<double>& aggregate = cols[0];
    std::vector<double>& count = cols[1];
    size_t begin = first == 0 ? 0 : ends[first - 1];
    for (size_t r = first; r < rows; ++r) {
      const size_t n = ends[r] - begin;
      aggregate.push_back(agg_ == AggregateKind::kAvg
                              ? AggregateMean(values + begin, n)
                              : ApplyAggregate(agg_, values + begin, n));
      count.push_back(static_cast<double>(n));
      begin = ends[r];
    }
  }

 private:
  EmbeddingKind kind_;
  AggregateKind agg_;
  std::string dim_name_;
};

class MomentsEmbedding : public Embedding {
 public:
  explicit MomentsEmbedding(int k) : k_(std::max(1, k)) {}

  EmbeddingKind kind() const override { return EmbeddingKind::kMoments; }
  size_t dims() const override { return static_cast<size_t>(k_) + 1; }
  std::vector<std::string> DimNames() const override {
    std::vector<std::string> names;
    for (int i = 1; i <= k_; ++i) names.push_back(StrFormat("m%d", i));
    names.push_back("count");
    return names;
  }
  void Apply(const double* values, size_t n, double* out) const override {
    for (int i = 1; i <= k_; ++i) out[i - 1] = Moment(values, n, i);
    out[k_] = static_cast<double>(n);
  }

 private:
  int k_;
};

class PaddingEmbedding : public Embedding {
 public:
  PaddingEmbedding(size_t max_width, double pad_value)
      : max_width_(std::max<size_t>(1, max_width)), pad_value_(pad_value) {}

  EmbeddingKind kind() const override { return EmbeddingKind::kPadding; }

  void Fit(size_t widest_group) override {
    width_ = std::min(std::max<size_t>(1, widest_group), max_width_);
  }

  size_t dims() const override { return width_; }
  std::vector<std::string> DimNames() const override {
    std::vector<std::string> names;
    for (size_t i = 0; i < width_; ++i) names.push_back(StrFormat("p%zu", i));
    return names;
  }
  void Apply(const double* values, size_t n, double* out) const override {
    // Sort descending for a canonical order (sets, not sequences), then pad
    // with the out-of-band marker or truncate to the fitted width.
    std::vector<double> sorted(values, values + n);
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    size_t kept = std::min(n, width_);
    std::copy(sorted.begin(), sorted.begin() + kept, out);
    std::fill(out + kept, out + width_, pad_value_);
  }

 private:
  size_t max_width_;
  double pad_value_;
  size_t width_ = 1;
};

}  // namespace

std::unique_ptr<Embedding> MakeEmbedding(EmbeddingKind kind,
                                         const EmbeddingOptions& options) {
  switch (kind) {
    case EmbeddingKind::kMean:
      return std::make_unique<AggregatePlusCountEmbedding>(
          EmbeddingKind::kMean, AggregateKind::kAvg, "mean");
    case EmbeddingKind::kMedian:
      return std::make_unique<AggregatePlusCountEmbedding>(
          EmbeddingKind::kMedian, AggregateKind::kMedian, "median");
    case EmbeddingKind::kMoments:
      return std::make_unique<MomentsEmbedding>(options.moments);
    case EmbeddingKind::kPadding:
      return std::make_unique<PaddingEmbedding>(options.padding_max_width,
                                                options.padding_value);
  }
  CARL_CHECK(false) << "unreachable embedding kind";
  return nullptr;
}

}  // namespace carl
