// Umbrella header: the public API of the CaRL library.
//
// Typical use (see examples/quickstart.cpp):
//
//   #include "carl/carl.h"
//
//   carl::Schema schema;            // declare entities/relationships/attrs
//   carl::Instance db(&schema);     // load facts and attribute values
//   auto model = carl::RelationalCausalModel::Parse(schema, R"(
//       Prestige[A] <= Qualification[A] WHERE Person(A)
//       Score[S]    <= Prestige[A]     WHERE Author(A, S)
//   )");
//   auto engine = carl::CarlEngine::Create(&db, std::move(*model));
//   carl::QueryResponse response = (*engine)->Answer(
//       carl::QueryRequest("AVG_Score[A] <= Prestige[A]?"));
//   if (response.status.ok()) use(response.answer.ate->ate.value);

#ifndef CARL_CARL_H_
#define CARL_CARL_H_

#include "common/csv.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"
#include "core/causal_model.h"
#include "core/embedding.h"
#include "core/engine.h"
#include "core/estimation.h"
#include "core/explain.h"
#include "core/ground_truth.h"
#include "core/grounding.h"
#include "core/query_session.h"
#include "core/relational_path.h"
#include "core/structural_model.h"
#include "core/unit_table.h"
#include "exec/exec_context.h"
#include "exec/parallel.h"
#include "graph/causal_graph.h"
#include "graph/dot_export.h"
#include "guard/guard.h"
#include "lang/ast.h"
#include "lang/parser.h"
#include "relational/aggregates.h"
#include "relational/conjunctive_query.h"
#include "relational/evaluator.h"
#include "relational/flat_table.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "relational/universal_table.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/ipw.h"
#include "stats/logistic.h"
#include "stats/matching.h"
#include "stats/ols.h"
#include "stats/stratification.h"

#endif  // CARL_CARL_H_
