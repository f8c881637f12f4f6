#include "gnn/logic_to_gnn.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace kgq {
namespace {

/// Flattened subformula record.
struct SubInfo {
  const ModalFormula* formula;
  int child_a = -1;
  int child_b = -1;
  size_t ready = 0;  ///< First layer after which the feature is correct.
};

/// Children-first collection with structural deduplication (by printed
/// form, which is injective for this AST).
int Collect(const ModalFormula& f, std::vector<SubInfo>* subs,
            std::map<std::string, int>* index) {
  std::string key = f.ToString();
  auto it = index->find(key);
  if (it != index->end()) return it->second;

  SubInfo info;
  info.formula = &f;
  switch (f.kind()) {
    case ModalFormula::Kind::kLabel:
      info.ready = 0;
      break;
    case ModalFormula::Kind::kTrue:
      info.ready = 1;
      break;
    case ModalFormula::Kind::kNot:
    case ModalFormula::Kind::kDiamond:
    case ModalFormula::Kind::kDiamondInv:
      info.child_a = Collect(*f.lhs(), subs, index);
      info.ready = (*subs)[info.child_a].ready + 1;
      break;
    case ModalFormula::Kind::kAnd:
    case ModalFormula::Kind::kOr:
      info.child_a = Collect(*f.lhs(), subs, index);
      info.child_b = Collect(*f.rhs(), subs, index);
      info.ready = std::max((*subs)[info.child_a].ready,
                            (*subs)[info.child_b].ready) +
                   1;
      break;
  }
  int id = static_cast<int>(subs->size());
  subs->push_back(info);
  index->emplace(std::move(key), id);
  return id;
}

}  // namespace

Matrix CompiledGnn::Encode(const LabeledGraph& graph) const {
  Matrix out(graph.num_nodes(), subformulas.size());
  for (size_t i = 0; i < subformulas.size(); ++i) {
    if (label_feature[i] < 0) continue;
    std::optional<ConstId> id = graph.dict().Find(subformulas[i]);
    if (!id.has_value()) continue;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (graph.NodeLabel(v) == *id) out.at(v, i) = 1.0;
    }
  }
  return out;
}

Result<Bitset> CompiledGnn::Evaluate(const LabeledGraph& graph,
                                     const GnnOptions& opts) const {
  return gnn.Classify(CsrSnapshot::FromGraph(graph), Encode(graph), opts);
}

Result<CompiledGnn> CompileModalToGnn(const ModalFormula& formula) {
  std::vector<SubInfo> subs;
  std::map<std::string, int> index;
  int root = Collect(formula, &subs, &index);
  size_t dim = subs.size();
  size_t num_layers = std::max<size_t>(1, subs[root].ready);

  // Relations used by diamonds ("" = any label).
  std::vector<std::string> relations;
  for (const SubInfo& s : subs) {
    if (s.formula->kind() == ModalFormula::Kind::kDiamond ||
        s.formula->kind() == ModalFormula::Kind::kDiamondInv) {
      if (std::find(relations.begin(), relations.end(),
                    s.formula->label()) == relations.end()) {
        relations.push_back(s.formula->label());
      }
    }
  }

  CompiledGnn out{AcGnn(dim), {}, {}};
  for (const SubInfo& s : subs) {
    out.subformulas.push_back(s.formula->ToString());
    out.label_feature.push_back(
        s.formula->kind() == ModalFormula::Kind::kLabel ? 1 : -1);
  }

  for (size_t l = 0; l < num_layers; ++l) {
    GnnLayer& layer = out.gnn.AddLayer(dim);
    for (const std::string& rel : relations) {
      layer.in_rel.emplace_back(rel, Matrix(dim, dim));
      layer.out_rel.emplace_back(rel, Matrix(dim, dim));
    }
    auto in_rel = [&](const std::string& rel) -> Matrix& {
      for (auto& [name, m] : layer.in_rel) {
        if (name == rel) return m;
      }
      assert(false);
      return layer.in_rel[0].second;
    };
    auto out_rel = [&](const std::string& rel) -> Matrix& {
      for (auto& [name, m] : layer.out_rel) {
        if (name == rel) return m;
      }
      assert(false);
      return layer.out_rel[0].second;
    };

    for (size_t i = 0; i < dim; ++i) {
      const SubInfo& s = subs[i];
      switch (s.formula->kind()) {
        case ModalFormula::Kind::kLabel:
          layer.self.at(i, i) = 1.0;  // Copy forward.
          break;
        case ModalFormula::Kind::kTrue:
          layer.bias[i] = 1.0;
          break;
        case ModalFormula::Kind::kNot:
          layer.self.at(i, s.child_a) = -1.0;
          layer.bias[i] = 1.0;
          break;
        case ModalFormula::Kind::kAnd:
          layer.self.at(i, s.child_a) += 1.0;
          layer.self.at(i, s.child_b) += 1.0;
          layer.bias[i] = -1.0;
          break;
        case ModalFormula::Kind::kOr:
          layer.self.at(i, s.child_a) += 1.0;
          layer.self.at(i, s.child_b) += 1.0;
          break;
        case ModalFormula::Kind::kDiamond:
          // Successors via out-edges.
          out_rel(s.formula->label()).at(i, s.child_a) = 1.0;
          layer.bias[i] = 1.0 - static_cast<double>(s.formula->grade());
          break;
        case ModalFormula::Kind::kDiamondInv:
          in_rel(s.formula->label()).at(i, s.child_a) = 1.0;
          layer.bias[i] = 1.0 - static_cast<double>(s.formula->grade());
          break;
      }
    }
  }

  std::vector<double> readout(dim, 0.0);
  readout[root] = 1.0;
  out.gnn.SetReadout(std::move(readout), 0.0);
  return out;
}

}  // namespace kgq
