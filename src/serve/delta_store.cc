#include "serve/delta_store.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace kgq {
namespace serve {

NodeId NodeTable::Add(std::string_view label) {
  if (size_ == capacity_) {
    // Grow into a new buffer: published views keep the old one, whose
    // slots below their watermarks never change.
    capacity_ = std::max<size_t>(1024, 2 * capacity_);
    std::shared_ptr<ConstId[]> grown = std::make_shared<ConstId[]>(capacity_);
    std::copy_n(ids_.get(), size_, grown.get());
    ids_ = std::move(grown);
  }
  ids_[size_] = names_.Intern(label);
  return static_cast<NodeId>(size_++);
}

NodeTableView NodeTable::View() {
  if (published_names_->size() != names_.size()) {
    published_names_ = std::make_shared<const Interner>(names_);
  }
  NodeTableView view;
  view.ids = ids_;
  view.size = size_;
  view.names = published_names_;
  return view;
}

const Multigraph& EpochGraphView::topology() const {
  return snap_->graph().topology();
}

bool EpochGraphView::NodeLabelIs(NodeId n, std::string_view label) const {
  return snap_->nodes.label(n) == label;
}

bool EpochGraphView::EdgeLabelIs(EdgeId e, std::string_view label) const {
  return csr().LabelName(csr().EdgeLabel(e)) == label;
}

DenseLabels EpochGraphView::dense_labels() const {
  const Interner* names = snap_->nodes.names.get();
  const CsrSnapshot* csr = csr_.get();
  return {snap_->nodes.ids.get(), csr->edge_labels().data(),
          [names](std::string_view s) {
            return names->Find(s).value_or(kNullConst);
          },
          [csr](std::string_view s) {
            return csr->FindLabel(s).value_or(kNullConst);
          }};
}

const LabeledGraph& EpochSnapshot::graph() const {
  std::call_once(lazy_graph->once, [this] {
    auto g = std::make_unique<LabeledGraph>();
    for (NodeId n = 0; n < nodes.size; ++n) g->AddNode(nodes.label(n));
    // CSR edge ids are canonical, so AddEdge interning order — and with
    // it the whole graph — matches the from-scratch materialization.
    for (EdgeId e = 0; e < csr->num_edges(); ++e) {
      g->AddEdge(csr->EdgeSource(e), csr->EdgeTarget(e),
                 csr->LabelName(csr->EdgeLabel(e)))
          .value();
    }
    lazy_graph->graph = std::move(g);
  });
  return *lazy_graph->graph;
}

DeltaStore::DeltaStore(DeltaStoreOptions options) : options_(options) {
  std::lock_guard<std::mutex> lock(mu_);
  auto snap = std::make_shared<EpochSnapshot>();
  snap->epoch = 0;
  snap->content_version = 0;
  snap->nodes = nodes_.View();
  snap->csr = FullCsrLocked(snap.get());
  snap->node_label_counts =
      std::make_shared<const std::map<std::string, size_t>>();
  current_ = std::move(snap);
}

NodeId DeltaStore::AddNode(std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeId id = nodes_.Add(label);
  ++node_label_counts_[std::string(label)];
  ++writes_applied_;
  KGQ_COUNTER_INC("serve.writes.applied");
  return id;
}

Result<bool> DeltaStore::InsertEdge(NodeId from, NodeId to,
                                    std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::InvalidArgument("insert_edge: no such node");
  }
  EdgeKey key{from, to, std::string(label)};
  bool applied = edges_.insert(key).second;
  if (applied) {
    log_.push_back({std::move(key), true});
    ++writes_applied_;
    KGQ_COUNTER_INC("serve.writes.applied");
  } else {
    ++writes_noop_;
    KGQ_COUNTER_INC("serve.writes.noop");
  }
  return applied;
}

Result<bool> DeltaStore::DeleteEdge(NodeId from, NodeId to,
                                    std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::InvalidArgument("delete_edge: no such node");
  }
  EdgeKey key{from, to, std::string(label)};
  bool applied = edges_.erase(key) > 0;
  if (applied) {
    log_.push_back({std::move(key), false});
    ++writes_applied_;
    KGQ_COUNTER_INC("serve.writes.applied");
  } else {
    ++writes_noop_;
    KGQ_COUNTER_INC("serve.writes.noop");
  }
  return applied;
}

void DeltaStore::NetLogLocked(EpochDelta* delta) {
  // Sorting groups each key's writes in canonical order. The effective
  // writes of one key alternate insert/delete (each flips membership),
  // so a key nets to +1 (inserted), -1 (deleted) or 0 (cancelled: the
  // key is back to its base-epoch state).
  std::sort(log_.begin(), log_.end(),
            [](const LoggedWrite& a, const LoggedWrite& b) {
              return a.key < b.key;
            });
  for (size_t i = 0; i < log_.size();) {
    int balance = 0;
    size_t j = i;
    for (; j < log_.size() && log_[j].key == log_[i].key; ++j) {
      balance += log_[j].insert ? 1 : -1;
    }
    if (balance != 0) {
      EdgeKey& key = log_[i].key;
      (balance > 0 ? delta->inserted : delta->deleted)
          .push_back({key.from, key.to, std::move(key.label)});
    }
    i = j;
  }
  // Release the array: after a bulk load it would otherwise pin the
  // load's whole write volume until the next publish.
  std::vector<LoggedWrite>().swap(log_);
}

std::shared_ptr<const CsrSnapshot> DeltaStore::FullCsrLocked(
    EpochSnapshot* snap) const {
  auto graph = std::make_unique<LabeledGraph>();
  for (NodeId n = 0; n < snap->nodes.size; ++n) {
    graph->AddNode(snap->nodes.label(n));
  }
  // std::set iterates in canonical (from, to, label) order, so edge ids
  // — and with them the CSR label interning — depend only on the
  // logical edge set, never on the insert/delete history.
  for (const EdgeKey& e : edges_) {
    graph->AddEdge(e.from, e.to, e.label).value();
  }
  const LabeledGraph& g = *graph;
  auto csr = std::make_shared<CsrSnapshot>(CsrSnapshot::FromLabeledEdges(
      g.topology(), [&g](EdgeId e) { return g.EdgeLabelString(e); }));
  // The full path already paid for the graph: seed the lazy cell.
  std::call_once(snap->lazy_graph->once, [&] {
    snap->lazy_graph->graph = std::move(graph);
  });
  return csr;
}

EpochPtr DeltaStore::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  KGQ_SPAN("serve.publish");
  const EpochSnapshot& prev = *current_;
  const size_t num_nodes = nodes_.size();
  auto snap = std::make_shared<EpochSnapshot>();
  snap->epoch = epoch_ + 1;
  snap->nodes = nodes_.View();
  snap->delta.has_base = true;
  snap->delta.base_epoch = prev.epoch;
  snap->delta.nodes_added = num_nodes - base_nodes_;
  NetLogLocked(&snap->delta);
  std::set<std::string_view> dirty_labels;
  for (const auto* list : {&snap->delta.inserted, &snap->delta.deleted}) {
    for (const CsrSnapshot::EdgeRecord& r : *list) dirty_labels.insert(r.label);
  }

  const bool content_changed = !snap->delta.inserted.empty() ||
                               !snap->delta.deleted.empty() ||
                               num_nodes != base_nodes_;
  if (!content_changed) {
    // Empty net delta: the epoch number bumps but every materialized
    // artifact — CSR, node-label stats, even an already-built graph —
    // is shared wholesale.
    snap->content_version = prev.content_version;
    snap->csr = prev.csr;
    snap->node_label_counts = prev.node_label_counts;
    snap->lazy_graph = prev.lazy_graph;
  } else {
    snap->content_version = prev.content_version + 1;
    snap->node_label_counts =
        num_nodes != base_nodes_
            ? std::make_shared<const std::map<std::string, size_t>>(
                  node_label_counts_)
            : prev.node_label_counts;
    if (options_.incremental_publish) {
      snap->csr = std::make_shared<CsrSnapshot>(CsrSnapshot::ApplyCanonicalDelta(
          *prev.csr, num_nodes, snap->delta.inserted, snap->delta.deleted));
    } else {
      snap->csr = FullCsrLocked(snap.get());
    }
  }

  // Dirty labels are counted per net-delta, so the histogram is the
  // "how partitioned was this publish" signal the view cache's label
  // reuse rides on. Labels whose net delta cancelled out count 0.
  KGQ_HISTOGRAM_RECORD("serve.publish.dirty_labels", dirty_labels.size());

  epoch_ = snap->epoch;
  base_nodes_ = num_nodes;
  current_ = snap;
  KGQ_GAUGE_SET("serve.epoch", epoch_);
  KGQ_HISTOGRAM_RECORD("serve.publish.edges", edges_.size());
  return current_;
}

EpochPtr DeltaStore::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t DeltaStore::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

size_t DeltaStore::NumNodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

size_t DeltaStore::NumLiveEdges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return edges_.size();
}

size_t DeltaStore::PendingOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Every node add and every effective edge write is one op.
  return nodes_.size() - base_nodes_ + log_.size();
}

uint64_t DeltaStore::WritesApplied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_applied_;
}

uint64_t DeltaStore::WritesNoop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_noop_;
}

std::vector<EdgeKey> DeltaStore::LogicalEdges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<EdgeKey>(edges_.begin(), edges_.end());
}

}  // namespace serve
}  // namespace kgq
