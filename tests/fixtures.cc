#include "fixtures.h"

#include <algorithm>
#include <cstring>
#include <optional>

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

datagen::Dataset MiniMimicDataset(size_t num_patients, size_t num_caregivers,
                                  size_t prescription_skew) {
  datagen::MimicConfig config;
  config.num_patients = num_patients;
  config.num_caregivers = num_caregivers;
  config.prescription_skew = prescription_skew;
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
