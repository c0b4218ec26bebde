#include "fixtures.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/str_util.h"
#include "datagen/mimic.h"
#include "datagen/nis.h"
#include "datagen/review.h"
#include "datagen/review_toy.h"

namespace carl {
namespace test_fixtures {

datagen::Dataset ReviewToyDataset() {
  Result<datagen::Dataset> review = datagen::MakeReviewToy();
  CARL_CHECK_OK(review.status());
  return std::move(*review);
}

datagen::Dataset MiniMimicDataset(size_t num_patients,
                                  size_t num_caregivers) {
  datagen::MimicConfig config;
  config.num_patients = num_patients;
  config.num_caregivers = num_caregivers;
  Result<datagen::Dataset> mimic = datagen::GenerateMimic(config);
  CARL_CHECK_OK(mimic.status());
  return std::move(*mimic);
}

void AppendMimicAdmission(Instance* db, int id) {
  const std::string pat = "mp" + std::to_string(id);
  const std::string rx = pat + "_rx";
  CARL_CHECK_OK(db->AddFact("Pa", {pat}));
  CARL_CHECK_OK(db->SetAttribute("Eth", {pat}, Value(2.0)));
  CARL_CHECK_OK(db->SetAttribute("Religion", {pat}, Value(1.0)));
  CARL_CHECK_OK(db->SetAttribute("Sex", {pat}, Value(id % 2 == 0)));
  CARL_CHECK_OK(db->SetAttribute("Age", {pat}, Value(50.0 + id)));
  CARL_CHECK_OK(db->SetAttribute("Diag", {pat}, Value(0.5)));
  CARL_CHECK_OK(db->SetAttribute("SelfPay", {pat}, Value(id % 3 == 0)));
  CARL_CHECK_OK(db->SetAttribute("Severe", {pat}, Value(id % 2 == 1)));
  CARL_CHECK_OK(db->SetAttribute("Len", {pat}, Value(150.0 + 7.0 * id)));
  CARL_CHECK_OK(db->SetAttribute("Death", {pat}, Value(false)));
  CARL_CHECK_OK(db->AddFact("Prescription", {rx}));
  CARL_CHECK_OK(db->SetAttribute("Dose", {rx}, Value(1.25)));
  CARL_CHECK_OK(db->AddFact("Care", {"c0", pat}));
  CARL_CHECK_OK(db->AddFact("Drug", {"c0", rx}));
  CARL_CHECK_OK(db->AddFact("Given", {rx, pat}));
}

datagen::Dataset MiniNisDataset(size_t num_admissions,
                                size_t num_hospitals) {
  datagen::NisConfig config;
  config.num_admissions = num_admissions;
  config.num_hospitals = num_hospitals;
  Result<datagen::Dataset> nis = datagen::GenerateNis(config);
  CARL_CHECK_OK(nis.status());
  return std::move(*nis);
}

datagen::Dataset SynthReviewDataset(size_t num_authors,
                                    size_t num_institutions,
                                    size_t num_papers, size_t num_venues) {
  datagen::ReviewConfig config;
  config.num_authors = num_authors;
  config.num_institutions = num_institutions;
  config.num_papers = num_papers;
  config.num_venues = num_venues;
  Result<datagen::ReviewData> review = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(review.status());
  return std::move(review->dataset);
}

datagen::Dataset RealisticReviewDataset() {
  datagen::ReviewConfig config = datagen::RealisticReviewConfig();
  config.num_authors = 600;
  config.num_papers = 300;
  config.num_institutions = 30;
  Result<datagen::ReviewData> review = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(review.status());
  return std::move(review->dataset);
}

datagen::Dataset MentorProbeDataset(
    const std::vector<std::pair<int, int>>& mentors) {
  datagen::Dataset data;
  data.schema = std::make_unique<Schema>();
  Schema& schema = *data.schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(schema.AddEntity("Submission").status());
  CARL_CHECK_OK(
      schema.AddRelationship("Author", {"Person", "Submission"}).status());
  CARL_CHECK_OK(
      schema.AddRelationship("Mentor", {"Person", "Submission"}).status());
  CARL_CHECK_OK(
      schema.AddAttribute("Prestige", "Person", true, ValueType::kBool)
          .status());
  CARL_CHECK_OK(schema
                    .AddAttribute("Quality", "Submission", /*observed=*/false,
                                  ValueType::kDouble)
                    .status());
  CARL_CHECK_OK(
      schema.AddAttribute("Score", "Submission", true, ValueType::kDouble)
          .status());
  data.instance = std::make_unique<Instance>(data.schema.get());
  Instance& db = *data.instance;
  for (int i = 0; i < 400; ++i) {
    const std::string author = "a" + std::to_string(i);
    const std::string paper = "s" + std::to_string(i);
    const bool prestige = i % 2 == 0;
    CARL_CHECK_OK(db.AddFact("Person", {author}));
    CARL_CHECK_OK(db.AddFact("Submission", {paper}));
    CARL_CHECK_OK(db.AddFact("Author", {author, paper}));
    CARL_CHECK_OK(db.SetAttribute("Prestige", {author}, Value(prestige)));
    CARL_CHECK_OK(db.SetAttribute(
        "Score", {paper},
        Value(1.0 + (prestige ? 0.5 : 0.0) + 0.01 * (i % 17))));
  }
  for (const auto& [author, paper] : mentors) {
    CARL_CHECK_OK(db.AddFact("Mentor", {"a" + std::to_string(author),
                                        "s" + std::to_string(paper)}));
  }
  data.model_text = R"(
    Score[S] <= Quality[S] WHERE Submission(S)
    Score[S] <= Prestige[A] WHERE Author(A, S)
    Prestige[A] <= Quality[S] WHERE Mentor(A, S)
    AVG_Score[A] <= Score[S] WHERE Author(A, S)
  )";
  return data;
}

std::vector<NamedDataset> StreamWorkloads() {
  std::vector<NamedDataset> out;
  out.push_back(NamedDataset{"REVIEW", ReviewToyDataset()});
  out.push_back(NamedDataset{"MIMIC", MiniMimicDataset()});
  out.push_back(NamedDataset{"NIS", MiniNisDataset()});
  return out;
}

std::vector<NamedDataset> GraphWorkloads() {
  std::vector<NamedDataset> out;
  out.push_back(NamedDataset{"MIMIC", MiniMimicDataset()});
  out.push_back(NamedDataset{"SYNTH-REVIEW", SynthReviewDataset()});
  return out;
}

Schema MakePersonItemSchema() {
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(schema.AddEntity("Item").status());
  CARL_CHECK_OK(schema.AddRelationship("Owns", {"Person", "Item"}).status());
  CARL_CHECK_OK(
      schema.AddAttribute("Age", "Person", true, ValueType::kDouble).status());
  CARL_CHECK_OK(
      schema.AddAttribute("Price", "Item", true, ValueType::kDouble).status());
  return schema;
}

namespace {

// Resolves `ref` at one binding row into *args: variables read their
// slot in `vars`, constants the instance's symbol table. False when a
// constant was never interned (the ref has no grounding).
bool ResolveRef(const Instance& instance, const AttributeRef& ref,
                const std::vector<std::string>& vars, TupleView binding,
                std::vector<SymbolId>* args) {
  args->clear();
  for (const Term& t : ref.args) {
    if (t.is_variable()) {
      size_t slot = static_cast<size_t>(
          std::find(vars.begin(), vars.end(), t.text) - vars.begin());
      CARL_CHECK(slot < vars.size()) << "unbound variable " << t.text;
      args->push_back(binding[slot]);
    } else {
      SymbolId id = instance.LookupConstant(t.text);
      if (id == kInvalidSymbol) return false;
      args->push_back(id);
    }
  }
  return true;
}

void GroundRuleByBinding(const Instance& instance, const Schema& schema,
                         const AttributeRef& head,
                         const std::vector<const AttributeRef*>& body,
                         const ConjunctiveQuery& where, bool require_all,
                         ReferenceGrounding* out) {
  std::vector<std::string> vars;
  auto add_vars = [&vars](const AttributeRef& ref) {
    for (const Term& t : ref.args) {
      if (t.is_variable() &&
          std::find(vars.begin(), vars.end(), t.text) == vars.end()) {
        vars.push_back(t.text);
      }
    }
  };
  add_vars(head);
  for (const AttributeRef* b : body) add_vars(*b);
  Result<BindingTable> bindings =
      QueryEvaluator(&instance).Evaluate(where, vars);
  CARL_CHECK_OK(bindings.status());
  Result<AttributeId> head_attr = schema.FindAttribute(head.attribute);
  CARL_CHECK_OK(head_attr.status());

  std::vector<CausalGraph::Edge> edges;
  std::vector<SymbolId> head_args, body_args;
  for (size_t i = 0; i < bindings->size(); ++i) {
    TupleView row = bindings->row(i);
    if (!ResolveRef(instance, head, vars, row, &head_args)) continue;
    bool all_resolve = true;
    for (const AttributeRef* b : body) {
      all_resolve = ResolveRef(instance, *b, vars, row, &body_args) &&
                    all_resolve;
    }
    if (require_all && !all_resolve) continue;
    NodeId head_node = out->graph.AddNode(
        *head_attr, TupleView(head_args.data(), head_args.size()));
    for (const AttributeRef* b : body) {
      if (!ResolveRef(instance, *b, vars, row, &body_args)) continue;
      Result<AttributeId> attr = schema.FindAttribute(b->attribute);
      CARL_CHECK_OK(attr.status());
      NodeId body_node = out->graph.AddNode(
          *attr, TupleView(body_args.data(), body_args.size()));
      edges.push_back(CausalGraph::Edge{body_node, head_node});
    }
    ++out->num_groundings;
  }
  out->graph.AddEdges(edges);
}

}  // namespace

ReferenceGrounding GroundByBinding(const Instance& instance,
                                   const RelationalCausalModel& model) {
  const Schema& schema = model.extended_schema();
  ReferenceGrounding out;
  for (const AttributeDef& attr : schema.attributes()) {
    RelationView rows = instance.Rows(attr.predicate);
    for (size_t r = 0; r < rows.size(); ++r) {
      out.graph.AddNode(attr.id, rows[r]);
    }
  }
  for (const CausalRule& rule : model.rules()) {
    std::vector<const AttributeRef*> body;
    for (const AttributeRef& b : rule.body) body.push_back(&b);
    GroundRuleByBinding(instance, schema, rule.head, body, rule.where,
                        /*require_all=*/false, &out);
  }
  for (const AggregateRule& rule : model.aggregate_rules()) {
    GroundRuleByBinding(instance, schema, rule.head, {&rule.source},
                        rule.where, /*require_all=*/true, &out);
  }
  return out;
}

namespace {

// Everything the reference needs about one kept unit.
struct ReferenceUnit {
  double y = 0.0;
  double t = 0.0;
  std::vector<NodeId> peers;      // sorted
  std::vector<NodeId> own_covs;   // first-occurrence order
  std::vector<NodeId> peer_covs;  // first-occurrence order
};

size_t Widest(const std::vector<std::vector<double>>& rows) {
  size_t widest = 0;
  for (const std::vector<double>& g : rows) widest = std::max(widest, g.size());
  return widest;
}

// One fitted embedding per attribute group, in map order, and its named
// columns.
void FitGroupEmbeddings(
    const Schema& schema, const UnitTableOptions& options,
    const std::string& prefix,
    const std::map<AttributeId, std::vector<std::vector<double>>>& groups,
    std::vector<std::unique_ptr<Embedding>>* embeddings,
    std::vector<std::string>* col_list, std::vector<std::string>* col_names) {
  for (const auto& [attr, rows] : groups) {
    std::unique_ptr<Embedding> e = MakeEmbedding(options.embedding);
    e->Fit(Widest(rows));
    for (const std::string& dim : e->DimNames()) {
      std::string name = prefix + schema.attribute(attr).name + "_" + dim;
      col_list->push_back(name);
      col_names->push_back(name);
    }
    embeddings->push_back(std::move(e));
  }
}

}  // namespace

Result<UnitTable> UnitTableByUnit(const GroundedModel& grounded,
                                  const UnitTableRequest& request,
                                  const UnitTableOptions& options) {
  const Schema& schema = grounded.schema();
  const CausalGraph& graph = grounded.graph();
  const AttributeDef& t_def = schema.attribute(request.treatment);
  const AttributeDef& y_def = schema.attribute(request.response);
  if (t_def.predicate != y_def.predicate) {
    return Status::FailedPrecondition("response not on the unit predicate");
  }
  std::optional<AggregateKind> aggregate;
  AttributeId source = kInvalidAttribute;
  Result<const AggregateRule*> rule =
      grounded.model().FindAggregateRule(y_def.name);
  if (rule.ok()) {
    aggregate = (*rule)->aggregate;
    CARL_ASSIGN_OR_RETURN(source,
                          schema.FindAttribute((*rule)->source.attribute));
  }
  auto allowed = [&](NodeId node) {
    return !request.allowed_sources.has_value() ||
           request.allowed_sources->Contains(graph.node(node).args);
  };
  auto is_treatment = [&](NodeId node) {
    return graph.node(node).attribute == request.treatment;
  };

  const RelationView units = grounded.instance().Rows(t_def.predicate);
  const std::vector<NodeId>& t_nodes =
      graph.NodesOfAttribute(request.treatment);
  const std::vector<NodeId>& y_nodes = graph.NodesOfAttribute(request.response);
  std::vector<ReferenceUnit> kept;
  std::vector<SymbolId> kept_units;
  size_t dropped = 0;
  for (size_t i = 0; i < units.size(); ++i) {
    ReferenceUnit unit;
    const NodeId t_node = t_nodes[i];
    const NodeId y_node = y_nodes[i];
    std::optional<double> t = grounded.NodeValue(t_node);
    if (!t.has_value()) {
      ++dropped;
      continue;
    }
    if (*t != 0.0 && *t != 1.0) {
      return Status::InvalidArgument("treatment must be binary 0/1");
    }
    unit.t = *t;
    std::vector<NodeId> starts;
    if (aggregate.has_value()) {
      std::vector<double> values;
      for (NodeId p : graph.Parents(y_node)) {
        if (graph.node(p).attribute != source || !allowed(p)) continue;
        std::optional<double> v = grounded.NodeValue(p);
        if (!v.has_value()) continue;
        starts.push_back(p);
        values.push_back(*v);
      }
      if (values.empty()) {
        ++dropped;
        continue;
      }
      unit.y = ApplyAggregate(*aggregate, values);
    } else {
      std::optional<double> y = grounded.NodeValue(y_node);
      if (!allowed(y_node) || !y.has_value()) {
        ++dropped;
        continue;
      }
      unit.y = *y;
      starts.push_back(y_node);
    }

    std::unordered_set<NodeId> visited(starts.begin(), starts.end());
    std::deque<NodeId> frontier(visited.begin(), visited.end());
    while (!frontier.empty()) {
      NodeId n = frontier.front();
      frontier.pop_front();
      if (n != t_node && is_treatment(n)) unit.peers.push_back(n);
      for (NodeId p : graph.Parents(n)) {
        if (visited.insert(p).second) frontier.push_back(p);
      }
    }
    std::sort(unit.peers.begin(), unit.peers.end());
    if (!options.include_isolated_units && unit.peers.empty()) {
      ++dropped;
      continue;
    }

    std::unordered_set<NodeId> seen;
    auto collect = [&](NodeId treated, std::vector<NodeId>* out) {
      for (NodeId p : graph.Parents(treated)) {
        if (is_treatment(p) || !grounded.NodeValue(p).has_value()) continue;
        if (seen.insert(p).second) out->push_back(p);
      }
    };
    collect(t_node, &unit.own_covs);
    for (NodeId p : unit.peers) collect(p, &unit.peer_covs);
    kept.push_back(std::move(unit));
    kept_units.insert(kept_units.end(), units[i].begin(), units[i].end());
  }
  if (kept.empty()) {
    return Status::FailedPrecondition("no unit kept");
  }

  const size_t n = kept.size();
  UnitTable table;
  table.embedding_kind = options.embedding;
  table.dropped_units = dropped;
  table.unit_args = std::move(kept_units);
  table.unit_arity = units.arity();
  std::vector<std::vector<double>> peer_t(n);
  std::map<AttributeId, std::vector<std::vector<double>>> own, peer;
  for (size_t r = 0; r < n; ++r) {
    for (NodeId p : kept[r].peers) {
      std::optional<double> v = grounded.NodeValue(p);
      if (v.has_value()) peer_t[r].push_back(*v);
      table.relational = true;
    }
    for (NodeId c : kept[r].own_covs) {
      std::vector<std::vector<double>>& rows = own[graph.node(c).attribute];
      rows.resize(n);
      rows[r].push_back(*grounded.NodeValue(c));
    }
    for (NodeId c : kept[r].peer_covs) {
      std::vector<std::vector<double>>& rows = peer[graph.node(c).attribute];
      rows.resize(n);
      rows[r].push_back(*grounded.NodeValue(c));
    }
  }

  std::vector<std::string> col_names{"y", "t"};
  std::shared_ptr<Embedding> psi;
  if (table.relational) {
    table.peer_count_col = "peer_count";
    table.peer_treated_count_col = "peer_treated_count";
    col_names.push_back(table.peer_count_col);
    col_names.push_back(table.peer_treated_count_col);
    psi = MakeEmbedding(options.embedding);
    psi->Fit(Widest(peer_t));
    for (const std::string& dim : psi->DimNames()) {
      table.peer_t_cols.push_back("peer_t_" + dim);
      col_names.push_back("peer_t_" + dim);
    }
    table.peer_t_embedding = psi;
  }
  std::vector<std::unique_ptr<Embedding>> own_embeddings, peer_embeddings;
  FitGroupEmbeddings(schema, options, "own_", own, &own_embeddings,
                     &table.own_covariate_cols, &col_names);
  FitGroupEmbeddings(schema, options, "peer_", peer, &peer_embeddings,
                     &table.peer_covariate_cols, &col_names);

  table.data = FlatTable(col_names);
  for (size_t r = 0; r < n; ++r) {
    std::vector<double> row{kept[r].y, kept[r].t};
    if (table.relational) {
      double treated = 0.0;
      for (double v : peer_t[r]) treated += (v != 0.0) ? 1.0 : 0.0;
      row.push_back(static_cast<double>(peer_t[r].size()));
      row.push_back(treated);
      for (double v : psi->Apply(peer_t[r])) row.push_back(v);
    }
    size_t e = 0;
    for (const auto& [attr, rows] : own) {
      for (double v : own_embeddings[e++]->Apply(rows[r])) row.push_back(v);
    }
    e = 0;
    for (const auto& [attr, rows] : peer) {
      for (double v : peer_embeddings[e++]->Apply(rows[r])) row.push_back(v);
    }
    table.data.AddRow(row);
  }
  return table;
}

Result<bool> AdjustmentCriterionByUnit(const GroundedModel& grounded,
                                       const UnitTableRequest& request,
                                       TupleView unit) {
  const Schema& schema = grounded.schema();
  const CausalGraph& graph = grounded.graph();
  const Status unvalued =
      Status::NotFound("unit has no treatment/response values");
  const NodeId t_node = graph.FindNode(request.treatment, unit);
  const NodeId y_node = graph.FindNode(request.response, unit);
  if (t_node == kInvalidNode || y_node == kInvalidNode ||
      !grounded.NodeValue(t_node).has_value()) {
    return unvalued;
  }
  auto valued_and_allowed = [&](NodeId node) {
    return grounded.NodeValue(node).has_value() &&
           (!request.allowed_sources.has_value() ||
            request.allowed_sources->Contains(graph.node(node).args));
  };
  std::vector<NodeId> starts;
  Result<const AggregateRule*> rule = grounded.model().FindAggregateRule(
      schema.attribute(request.response).name);
  if (rule.ok()) {
    CARL_ASSIGN_OR_RETURN(AttributeId source,
                          schema.FindAttribute((*rule)->source.attribute));
    for (NodeId p : graph.Parents(y_node)) {
      if (graph.node(p).attribute == source && valued_and_allowed(p)) {
        starts.push_back(p);
      }
    }
  } else if (valued_and_allowed(y_node)) {
    starts.push_back(y_node);
  }
  if (starts.empty()) return unvalued;

  std::vector<NodeId> treated{t_node};
  for (NodeId n : graph.Ancestors(starts)) {
    if (n != t_node && graph.node(n).attribute == request.treatment) {
      treated.push_back(n);
    }
  }
  std::vector<NodeId> conditioning = treated;
  std::vector<NodeId> parents;
  for (NodeId n : treated) {
    for (NodeId p : graph.Parents(n)) {
      parents.push_back(p);
      if (graph.node(p).attribute != request.treatment &&
          grounded.NodeValue(p).has_value()) {
        conditioning.push_back(p);
      }
    }
  }
  return DSeparation(graph).Separated(starts, parents, conditioning);
}

namespace {

std::string Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return StrFormat("%016" PRIx64, bits);
}

std::string Describe(const EffectEstimate& e) {
  std::string out = Bits(e.value) + " se=" + Bits(e.std_error) +
                    " ci=" + Bits(e.ci_low) + "," + Bits(e.ci_high) +
                    " samples=";
  for (double s : e.samples) out += Bits(s) + ",";
  return out;
}

std::string Describe(const NaiveContrast& n) {
  return StrFormat("naive=%s/%s/%s/%s n=%zu/%zu",
                   Bits(n.treated_mean).c_str(), Bits(n.control_mean).c_str(),
                   Bits(n.difference).c_str(), Bits(n.correlation).c_str(),
                   n.n_treated, n.n_control);
}

std::string Describe(const std::optional<bool>& criterion_ok) {
  if (!criterion_ok.has_value()) return "criterion=unset";
  return *criterion_ok ? "criterion=ok" : "criterion=violated";
}

}  // namespace

std::string DescribeResponse(const QueryResponse& response) {
  if (!response.status.ok()) {
    return "error " + response.status.ToString();
  }
  const QueryAnswer& answer = response.answer;
  if (answer.ate.has_value()) {
    const AteAnswer& a = *answer.ate;
    return StrFormat("ate %s units=%zu dropped=%zu relational=%d ",
                     a.response_attribute.c_str(), a.num_units,
                     a.dropped_units, a.relational ? 1 : 0) +
           Describe(a.naive) + " " + Describe(a.criterion_ok) + "\n  ate " +
           Describe(a.ate);
  }
  if (!answer.effects.has_value()) return "ok without an answer";
  const RelationalEffectsAnswer& e = *answer.effects;
  return StrFormat("effects %s units=%zu dropped=%zu %s ",
                   e.response_attribute.c_str(), e.num_units,
                   e.dropped_units, e.condition.ToString().c_str()) +
         Describe(e.naive) + " " + Describe(e.criterion_ok) + "\n  aie " +
         Describe(e.aie) + "\n  are " + Describe(e.are) + "\n  aoe " +
         Describe(e.aoe) + "\n  aie_psi " + Describe(e.aie_psi);
}

std::string UnitTableDiff(const UnitTable& want, const UnitTable& got) {
  if (got.data.column_names() != want.data.column_names()) {
    return "column names differ";
  }
  for (size_t c = 0; c < want.data.num_cols(); ++c) {
    const std::vector<double>& a = want.data.Column(c);
    const std::vector<double>& b = got.data.Column(c);
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
      return "column " + want.data.column_names()[c] + " differs";
    }
  }
  if (got.unit_arity != want.unit_arity || got.unit_args != want.unit_args) {
    return "units differ";
  }
  if (got.dropped_units != want.dropped_units) return "dropped_units differ";
  if (got.relational != want.relational) return "relational differs";
  if (got.peer_count_col != want.peer_count_col ||
      got.peer_treated_count_col != want.peer_treated_count_col ||
      got.peer_t_cols != want.peer_t_cols ||
      got.own_covariate_cols != want.own_covariate_cols ||
      got.peer_covariate_cols != want.peer_covariate_cols) {
    return "column lists differ";
  }
  return "";
}

uint64_t GraphFingerprint(const GroundedModel& grounded) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
    return h;
  };
  auto mix_string = [&mix](uint64_t h, const std::string& s) {
    for (unsigned char c : s) h = mix(h, c);
    return h;
  };
  const CausalGraph& graph = grounded.graph();
  uint64_t h = 0xcbf29ce484222325ull;
  h = mix(h, graph.num_nodes());
  h = mix(h, graph.num_edges());
  h = mix(h, grounded.num_groundings());
  for (NodeId id = 0; id < static_cast<NodeId>(graph.num_nodes()); ++id) {
    h = mix_string(h, grounded.NodeName(id));
    for (NodeId p : graph.Parents(id)) h = mix(h, static_cast<uint64_t>(p));
    for (NodeId c : graph.Children(id)) h = mix(h, static_cast<uint64_t>(c));
    std::optional<double> v = grounded.NodeValue(id);
    uint64_t bits = 0;
    if (v.has_value()) {
      static_assert(sizeof(double) == sizeof(uint64_t), "");
      std::memcpy(&bits, &*v, sizeof(bits));
      bits += 1;  // distinguish "0.0" from "missing"
    }
    h = mix(h, bits);
  }
  return h;
}

CanonicalGraph Canonicalize(const GroundedModel& grounded) {
  CanonicalGraph canon;
  const CausalGraph& graph = grounded.graph();
  for (NodeId id = 0; id < static_cast<NodeId>(graph.num_nodes()); ++id) {
    std::string name = grounded.NodeName(id);
    canon.nodes.push_back(name);
    for (NodeId p : graph.Parents(id)) {
      canon.edges.push_back(grounded.NodeName(p) + " -> " + name);
    }
    std::optional<double> v = grounded.NodeValue(id);
    canon.values.push_back(
        name + " = " + (v.has_value() ? std::to_string(*v) : "missing"));
  }
  std::sort(canon.nodes.begin(), canon.nodes.end());
  std::sort(canon.edges.begin(), canon.edges.end());
  std::sort(canon.values.begin(), canon.values.end());
  return canon;
}

}  // namespace test_fixtures
}  // namespace carl
