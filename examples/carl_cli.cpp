// carl_cli: drive a complete CaRL analysis from files — no C++ required.
//
// Usage:
//   build/carl_cli <schema.txt> <model.carl> <query> [--facts P=file.csv]...
//                    [--attrs K=file.csv]... [--embedding mean|median|...]
//                    [--estimator regression|matching|ipw|stratification]
//                    [--bootstrap N] [--explain]
//
//   schema.txt  entity/relationship/attribute declarations
//               (relational/schema_parser.h format)
//   model.carl  CaRL rules (lang/parser.h format)
//   query       a CaRL causal query, e.g. "AVG_Score[A] <= Prestige[A]?"
//   --facts     ground facts for predicate P (one column per argument)
//   --attrs     attribute table whose first K columns are the unit key
//
// With no file arguments it runs a built-in demo on the Figure 2 toy data.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "carl/carl.h"
#include "common/str_util.h"
#include "datagen/review_toy.h"
#include "relational/instance_io.h"
#include "relational/schema_parser.h"

using namespace carl;

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

int RunDemo() {
  std::printf("(no files given - running the built-in Figure 2 demo)\n\n");
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  CARL_CHECK_OK(data.status());
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());
  Result<QueryExplanation> explanation =
      ExplainQuery(engine->get(), "AVG_Score[A] <= Prestige[A]?");
  CARL_CHECK_OK(explanation.status());
  std::printf("%s\n", explanation->ToString().c_str());
  QueryResponse response =
      (*engine)->Answer(QueryRequest("AVG_Score[A] <= Prestige[A]?"));
  CARL_CHECK_OK(response.status);
  const AteAnswer& ate = *response.answer.ate;
  std::printf("naive difference: %+.3f\nATE:              %+.3f\n",
              ate.naive.difference, ate.ate.value);
  return 0;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return RunDemo();

  Result<std::string> schema_text = ReadFile(argv[1]);
  if (!schema_text.ok()) return Fail(schema_text.status());
  Result<Schema> schema = ParseSchema(*schema_text);
  if (!schema.ok()) return Fail(schema.status());

  Result<std::string> model_text = ReadFile(argv[2]);
  if (!model_text.ok()) return Fail(model_text.status());
  std::string query = argv[3];

  Instance db(&*schema);
  EngineOptions options;
  bool explain = false;

  for (int i = 4; i < argc; ++i) {
    std::string arg = argv[i];
    auto split_eq = [](const std::string& s) {
      size_t eq = s.find('=');
      return std::make_pair(s.substr(0, eq),
                            eq == std::string::npos ? "" : s.substr(eq + 1));
    };
    if (arg == "--explain") {
      explain = true;
    } else if (arg == "--facts" && i + 1 < argc) {
      auto [pred, path] = split_eq(argv[++i]);
      Result<CsvDocument> csv = ReadCsvFile(path);
      if (!csv.ok()) return Fail(csv.status());
      Status loaded = LoadFactsCsv(*csv, pred, &db);
      if (!loaded.ok()) return Fail(loaded);
    } else if (arg == "--attrs" && i + 1 < argc) {
      auto [key, path] = split_eq(argv[++i]);
      Result<CsvDocument> csv = ReadCsvFile(path);
      if (!csv.ok()) return Fail(csv.status());
      Status loaded = LoadAttributesCsv(*csv, std::atoi(key.c_str()), &db);
      if (!loaded.ok()) return Fail(loaded);
    } else if (arg == "--embedding" && i + 1 < argc) {
      Result<EmbeddingKind> kind = ParseEmbeddingKind(argv[++i]);
      if (!kind.ok()) return Fail(kind.status());
      options.embedding = *kind;
    } else if (arg == "--estimator" && i + 1 < argc) {
      Result<EstimatorKind> kind = ParseEstimatorKind(argv[++i]);
      if (!kind.ok()) return Fail(kind.status());
      options.estimator = *kind;
    } else if (arg == "--bootstrap" && i + 1 < argc) {
      options.bootstrap_replicates = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }

  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*schema, *model_text);
  if (!model.ok()) return Fail(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(&db, std::move(*model));
  if (!engine.ok()) return Fail(engine.status());

  if (explain) {
    Result<QueryExplanation> explanation =
        ExplainQuery(engine->get(), query, options);
    if (!explanation.ok()) return Fail(explanation.status());
    std::printf("%s\n", explanation->ToString().c_str());
  }

  QueryRequest request(query);
  request.options = options;
  QueryResponse response = (*engine)->Answer(request);
  if (!response.status.ok()) return Fail(response.status);
  if (response.answer.ate.has_value()) {
    const AteAnswer& ate = *response.answer.ate;
    std::printf("units: %zu (dropped %zu)\n", ate.num_units,
                ate.dropped_units);
    std::printf("naive difference: %+.4f   (treated %.4f, control %.4f)\n",
                ate.naive.difference, ate.naive.treated_mean,
                ate.naive.control_mean);
    std::printf("correlation:      %+.4f\n", ate.naive.correlation);
    std::printf("ATE:              %+.4f", ate.ate.value);
    if (options.bootstrap_replicates > 0) {
      std::printf("  [%+.4f, %+.4f]", ate.ate.ci_low, ate.ate.ci_high);
    }
    std::printf("\n");
  } else {
    const RelationalEffectsAnswer& effects = *response.answer.effects;
    std::printf("units: %zu\n", effects.num_units);
    std::printf("AIE: %+.4f   ARE: %+.4f   AOE: %+.4f\n",
                effects.aie.value, effects.are.value, effects.aoe.value);
  }
  return 0;
}
