#include "plan/ir.h"

#include <algorithm>
#include <cstdio>

namespace kgq {

const char* LogicalKindName(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kNodeScan:
      return "NodeScan";
    case LogicalKind::kEdgeScan:
      return "EdgeScan";
    case LogicalKind::kPathAtom:
      return "PathAtom";
    case LogicalKind::kHashJoin:
      return "HashJoin";
    case LogicalKind::kFilter:
      return "Filter";
    case LogicalKind::kProject:
      return "Project";
  }
  return "?";
}

bool LogicalOp::Produces(const std::string& var) const {
  return std::find(schema.begin(), schema.end(), var) != schema.end();
}

namespace {

std::string VarList(const std::vector<std::string>& vars) {
  std::string out = "[";
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out += ", ";
    out += vars[i];
  }
  return out + "]";
}

std::string FormatEst(double est) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", est);
  return buf;
}

void Render(const LogicalOp& op, size_t indent, std::string* out) {
  out->append(indent * 2, ' ');
  out->append(LogicalKindName(op.kind));
  switch (op.kind) {
    case LogicalKind::kNodeScan:
      out->append(" (" + op.src_var +
                  (op.test ? ": " + op.test->ToString() : "") + ")");
      if (op.has_bound_src) {
        out->append(" =" + std::to_string(op.bound_src));
      }
      break;
    case LogicalKind::kEdgeScan:
      out->append(" (" + op.src_var + ")-[" + op.label +
                  (op.backward ? "^-" : "") + "]->(" + op.dst_var + ")");
      if (op.has_bound_src) {
        out->append(" " + op.src_var + "=" + std::to_string(op.bound_src));
      }
      if (op.has_bound_dst) {
        out->append(" " + op.dst_var + "=" + std::to_string(op.bound_dst));
      }
      break;
    case LogicalKind::kPathAtom:
      out->append(" (" + op.src_var + ")-[" + op.path->ToString() + "]->(" +
                  op.dst_var + ")");
      if (op.has_bound_src) {
        out->append(" " + op.src_var + "=" + std::to_string(op.bound_src));
      }
      if (op.has_bound_dst) {
        out->append(" " + op.dst_var + "=" + std::to_string(op.bound_dst));
      }
      // A kAuto atom's engine is chosen at run time; only the profile
      // can name it.
      if (op.engine == PathEngine::kMatrix) {
        out->append(op.path->kind() == PathExpr::Kind::kContextFree
                        ? " engine=cfpq-matrix"
                        : " engine=matrix");
      }
      break;
    case LogicalKind::kHashJoin: {
      // The join keys: variables produced by both children.
      std::vector<std::string> keys;
      for (const std::string& v : op.children[0]->schema) {
        if (op.children[1]->Produces(v)) keys.push_back(v);
      }
      out->append(" " + (keys.empty() ? std::string("[cross]")
                                      : VarList(keys)));
      break;
    }
    case LogicalKind::kFilter:
      if (op.test) {
        out->append(" " + op.src_var + ": " + op.test->ToString());
      } else {
        out->append(" " + op.src_var + " = " +
                    (op.bound_src == kNoNode ? std::string("<absent>")
                                             : std::to_string(op.bound_src)));
      }
      break;
    case LogicalKind::kProject:
      out->append(" " + VarList(op.columns));
      if (op.limit > 0) out->append(" limit=" + std::to_string(op.limit));
      break;
  }
  out->append(" est=" + FormatEst(op.est_rows));
  out->push_back('\n');
  for (const LogicalOpPtr& child : op.children) {
    Render(*child, indent + 1, out);
  }
}

}  // namespace

std::string ExplainPlan(const LogicalOp& root) {
  std::string out;
  Render(root, 0, &out);
  return out;
}

}  // namespace kgq
