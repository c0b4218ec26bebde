#include "fixtures.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>

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
    std::unique_ptr<Embedding> e =
        MakeEmbedding(options.embedding, options.embedding_options);
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
  std::vector<Tuple> kept_units;
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
    kept_units.push_back(units[i].ToTuple());
  }
  if (kept.empty()) {
    return Status::FailedPrecondition("no unit kept");
  }

  const size_t n = kept.size();
  UnitTable table;
  table.embedding_kind = options.embedding;
  table.dropped_units = dropped;
  table.units = std::move(kept_units);
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
    psi = MakeEmbedding(options.embedding, options.embedding_options);
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
