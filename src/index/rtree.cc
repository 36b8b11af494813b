#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/binio.h"
#include "util/status.h"

namespace sapla {

namespace {
// Format tag for serialized RTree bytes ("RTB1"); bumped on layout change.
constexpr uint32_t kRTreeBytesMagic = 0x31425452;
}  // namespace

RTree::RTree(size_t dims, const Options& options)
    : dims_(dims), options_(options) {
  SAPLA_DCHECK(dims_ >= 1);
  SAPLA_DCHECK(options_.min_fill >= 1 &&
               options_.max_fill >= 2 * options_.min_fill - 1);
  nodes_.push_back(Node{});
  root_ = 0;
}

double RTree::Area(const Entry& e) const {
  // Product areas degenerate to 0 in high dimensions whenever one extent is
  // 0; the usual robust choice is the margin-augmented product. We use the
  // sum-of-extents (margin) — monotone under extension, no underflow.
  double margin = 0.0;
  for (size_t d = 0; d < dims_; ++d) margin += e.hi[d] - e.lo[d];
  return margin;
}

void RTree::Extend(Entry* box, const Entry& add) {
  for (size_t d = 0; d < box->lo.size(); ++d) {
    box->lo[d] = std::min(box->lo[d], add.lo[d]);
    box->hi[d] = std::max(box->hi[d], add.hi[d]);
  }
}

double RTree::Enlargement(const Entry& box, const Entry& add) const {
  Entry grown = box;
  Extend(&grown, add);
  return Area(grown) - Area(box);
}

RTree::Entry RTree::BoundingEntry(int node_id) const {
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  SAPLA_DCHECK(!node.entries.empty());
  Entry box = node.entries[0];
  box.child = node_id;
  for (size_t i = 1; i < node.entries.size(); ++i)
    Extend(&box, node.entries[i]);
  return box;
}

void RTree::Insert(const std::vector<double>& point, size_t id) {
  InsertBox(point, point, id);
}

void RTree::InsertBox(const std::vector<double>& lo,
                      const std::vector<double>& hi, size_t id) {
  SAPLA_DCHECK(lo.size() == dims_ && hi.size() == dims_);
  Entry e;
  e.lo = lo;
  e.hi = hi;
  e.child = -1;
  e.id = id;
  const int sibling = InsertRec(root_, e);
  if (sibling >= 0) {
    // Root split: grow the tree by one level.
    Node new_root;
    new_root.leaf = false;
    new_root.entries.push_back(BoundingEntry(root_));
    new_root.entries.push_back(BoundingEntry(sibling));
    nodes_.push_back(std::move(new_root));
    root_ = static_cast<int>(nodes_.size()) - 1;
  }
  ++num_entries_;
}

int RTree::InsertRec(int node_id, const Entry& entry) {
  Node& node = nodes_[static_cast<size_t>(node_id)];
  if (node.leaf) {
    if (node.entries.size() < options_.max_fill) {
      node.entries.push_back(entry);
      return -1;
    }
    return SplitNode(node_id, entry);
  }

  // ChooseSubtree: least enlargement, ties by smaller area.
  size_t best = 0;
  double best_enl = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const double enl = Enlargement(node.entries[i], entry);
    const double area = Area(node.entries[i]);
    if (enl < best_enl || (enl == best_enl && area < best_area)) {
      best = i;
      best_enl = enl;
      best_area = area;
    }
  }
  const int child = node.entries[best].child;
  const int split = InsertRec(child, entry);
  // Note: nodes_ may have reallocated; re-take the reference.
  Node& node2 = nodes_[static_cast<size_t>(node_id)];
  node2.entries[best] = BoundingEntry(child);
  if (split < 0) return -1;
  const Entry sibling_box = BoundingEntry(split);
  if (node2.entries.size() < options_.max_fill) {
    node2.entries.push_back(sibling_box);
    return -1;
  }
  return SplitNode(node_id, sibling_box);
}

int RTree::SplitNode(int node_id, const Entry& extra) {
  // Guttman's quadratic split over the node's entries plus the overflow one.
  std::vector<Entry> all = nodes_[static_cast<size_t>(node_id)].entries;
  all.push_back(extra);
  const bool leaf = nodes_[static_cast<size_t>(node_id)].leaf;

  // PickSeeds: the pair wasting the most area if grouped together.
  size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      Entry joined = all[i];
      Extend(&joined, all[j]);
      const double waste = Area(joined) - Area(all[i]) - Area(all[j]);
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  Node group_a, group_b;
  group_a.leaf = group_b.leaf = leaf;
  Entry box_a = all[seed_a], box_b = all[seed_b];
  group_a.entries.push_back(all[seed_a]);
  group_b.entries.push_back(all[seed_b]);

  std::vector<bool> assigned(all.size(), false);
  assigned[seed_a] = assigned[seed_b] = true;
  size_t remaining = all.size() - 2;
  while (remaining > 0) {
    // If one group must take all remaining entries to reach min fill, do so.
    if (group_a.entries.size() + remaining == options_.min_fill) {
      for (size_t i = 0; i < all.size(); ++i)
        if (!assigned[i]) {
          group_a.entries.push_back(all[i]);
          Extend(&box_a, all[i]);
          assigned[i] = true;
        }
      break;
    }
    if (group_b.entries.size() + remaining == options_.min_fill) {
      for (size_t i = 0; i < all.size(); ++i)
        if (!assigned[i]) {
          group_b.entries.push_back(all[i]);
          Extend(&box_b, all[i]);
          assigned[i] = true;
        }
      break;
    }
    // PickNext: the entry with the strongest group preference.
    size_t pick = 0;
    double best_diff = -1.0;
    for (size_t i = 0; i < all.size(); ++i) {
      if (assigned[i]) continue;
      const double diff = std::fabs(Enlargement(box_a, all[i]) -
                                    Enlargement(box_b, all[i]));
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
      }
    }
    const double enl_a = Enlargement(box_a, all[pick]);
    const double enl_b = Enlargement(box_b, all[pick]);
    const bool to_a =
        enl_a < enl_b ||
        (enl_a == enl_b && group_a.entries.size() <= group_b.entries.size());
    if (to_a) {
      group_a.entries.push_back(all[pick]);
      Extend(&box_a, all[pick]);
    } else {
      group_b.entries.push_back(all[pick]);
      Extend(&box_b, all[pick]);
    }
    assigned[pick] = true;
    --remaining;
  }

  nodes_[static_cast<size_t>(node_id)] = std::move(group_a);
  nodes_.push_back(std::move(group_b));
  return static_cast<int>(nodes_.size()) - 1;
}

void RTree::BulkLoadStr(std::vector<BulkEntry> entries) {
  nodes_.clear();
  num_entries_ = entries.size();
  if (entries.empty()) {
    nodes_.push_back(Node{});
    root_ = 0;
    return;
  }

  // Level 0: sort data boxes by center along dim 0 and chunk into leaves.
  auto center_less = [](size_t dim) {
    return [dim](const Entry& a, const Entry& b) {
      return a.lo[dim] + a.hi[dim] < b.lo[dim] + b.hi[dim];
    };
  };
  std::vector<Entry> level;
  level.reserve(entries.size());
  for (BulkEntry& e : entries) {
    Entry entry;
    entry.lo = std::move(e.lo);
    entry.hi = std::move(e.hi);
    entry.child = -1;
    entry.id = e.id;
    SAPLA_DCHECK(entry.lo.size() == dims_ && entry.hi.size() == dims_);
    level.push_back(std::move(entry));
  }

  bool leaf_level = true;
  size_t sort_dim = 0;
  while (true) {
    std::sort(level.begin(), level.end(), center_less(sort_dim));
    sort_dim = (sort_dim + 1) % dims_;

    // Chunk the sorted entries into nodes of max_fill (the final chunk may
    // be smaller but never below 1; with >= 2 chunks we rebalance the tail
    // to respect min_fill).
    std::vector<Entry> parents;
    size_t i = 0;
    while (i < level.size()) {
      size_t take = std::min(options_.max_fill, level.size() - i);
      // Avoid a tail below min_fill by borrowing from this chunk.
      const size_t rest = level.size() - i - take;
      if (rest > 0 && rest < options_.min_fill)
        take -= options_.min_fill - rest;
      Node node;
      node.leaf = leaf_level;
      node.entries.assign(level.begin() + static_cast<ptrdiff_t>(i),
                          level.begin() + static_cast<ptrdiff_t>(i + take));
      nodes_.push_back(std::move(node));
      parents.push_back(BoundingEntry(static_cast<int>(nodes_.size()) - 1));
      i += take;
    }
    if (parents.size() == 1) {
      root_ = parents[0].child;
      return;
    }
    level = std::move(parents);
    leaf_level = false;
  }
}

TreeStats RTree::ComputeStats() const {
  TreeStats stats;
  stats.entries = num_entries_;
  size_t leaf_entry_sum = 0;
  // BFS from the root tracking depth.
  struct Item {
    int node;
    size_t depth;
  };
  std::queue<Item> q;
  q.push({root_, 1});
  while (!q.empty()) {
    const Item item = q.front();
    q.pop();
    const Node& node = nodes_[static_cast<size_t>(item.node)];
    stats.height = std::max(stats.height, item.depth);
    if (node.leaf) {
      ++stats.leaf_nodes;
      leaf_entry_sum += node.entries.size();
    } else {
      ++stats.internal_nodes;
      for (const Entry& e : node.entries) q.push({e.child, item.depth + 1});
    }
  }
  stats.avg_leaf_entries =
      stats.leaf_nodes ? static_cast<double>(leaf_entry_sum) /
                             static_cast<double>(stats.leaf_nodes)
                       : 0.0;
  return stats;
}

void RTree::BestFirstSearch(const BoxDistFn& box_dist, const VisitFn& visit,
                            SearchCounters* counters, double bound) const {
  struct QItem {
    double dist;
    int node;
    size_t level;  // root = 0
    bool operator>(const QItem& o) const { return dist > o.dist; }
  };
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  pq.push({0.0, root_, 0});
  while (!pq.empty()) {
    const QItem item = pq.top();
    pq.pop();
    if (item.dist > bound) {
      // Everything left is at least this far: the popped item and the rest
      // of the queue were all avoided ("node accesses" saved, Figs. 15/16).
      if (counters != nullptr) counters->nodes_pruned += 1 + pq.size();
      break;
    }
    const Node& node = nodes_[static_cast<size_t>(item.node)];
    if (counters != nullptr) counters->CountNodeVisit(item.level, node.leaf);
    for (const Entry& e : node.entries) {
      if (node.leaf) {
        bound = visit(e.id, bound);
      } else {
        const double d = box_dist(e.lo, e.hi);
        if (d <= bound) {
          pq.push({d, e.child, item.level + 1});
        } else if (counters != nullptr) {
          ++counters->nodes_pruned;
        }
      }
    }
  }
}

std::string RTree::Serialize() const {
  std::string out;
  binio::PutU32(&out, kRTreeBytesMagic);
  binio::PutU64(&out, dims_);
  binio::PutU64(&out, num_entries_);
  binio::PutI64(&out, root_);
  binio::PutU64(&out, nodes_.size());
  for (const Node& node : nodes_) {
    binio::PutU32(&out, node.leaf ? 1 : 0);
    binio::PutU32(&out, static_cast<uint32_t>(node.entries.size()));
    for (const Entry& e : node.entries) {
      binio::PutI64(&out, e.child);
      binio::PutU64(&out, e.id);
      for (const double v : e.lo) binio::PutF64(&out, v);
      for (const double v : e.hi) binio::PutF64(&out, v);
    }
  }
  return out;
}

Status RTree::Restore(const std::string& bytes, size_t num_ids) {
  const auto bad = [](const char* what) {
    return Status::InvalidArgument(std::string("rtree restore: ") + what);
  };
  binio::Reader r(bytes);
  if (r.ReadU32() != kRTreeBytesMagic) return bad("bad magic");
  const uint64_t dims = r.ReadU64();
  const uint64_t num_data = r.ReadU64();
  const int64_t root = r.ReadI64();
  const uint64_t num_nodes = r.ReadU64();
  if (!r.ok()) return bad("truncated header");
  if (dims != dims_) return bad("dimensionality mismatch");
  // Every node costs at least 8 bytes on the wire, so a plausible node
  // count is bounded by the buffer size — rejects corrupt counts before
  // any allocation.
  if (num_nodes == 0 || num_nodes > bytes.size()) return bad("node count");
  if (root < 0 || static_cast<uint64_t>(root) >= num_nodes)
    return bad("root out of range");

  const size_t entry_bytes = 8 + 8 + 2 * 8 * static_cast<size_t>(dims);
  std::vector<Node> nodes(num_nodes);
  for (Node& node : nodes) {
    const uint32_t leaf = r.ReadU32();
    const uint32_t count = r.ReadU32();
    if (!r.ok() || leaf > 1) return bad("malformed node header");
    if (count > r.remaining() / entry_bytes) return bad("entry count");
    node.leaf = leaf == 1;
    node.entries.resize(count);
    for (Entry& e : node.entries) {
      e.child = static_cast<int>(r.ReadI64());
      e.id = r.ReadU64();
      e.lo.resize(dims);
      e.hi.resize(dims);
      for (double& v : e.lo) v = r.ReadF64();
      for (double& v : e.hi) v = r.ReadF64();
      if (!r.ok()) return bad("truncated entry");
      if (node.leaf) {
        if (e.child != -1) return bad("leaf entry with a child link");
        if (e.id >= num_ids) return bad("data id out of range");
      } else {
        if (e.child < 0 || static_cast<uint64_t>(e.child) >= num_nodes)
          return bad("child node out of range");
      }
      for (size_t d = 0; d < dims; ++d)
        if (!(e.lo[d] <= e.hi[d])) return bad("inverted or non-finite box");
    }
  }
  if (r.remaining() != 0) return bad("trailing bytes");

  // Reachability walk from the root: every node must be referenced exactly
  // once (no cycles, no sharing, no orphans) and the data entries must sum
  // to the declared total — a corrupted child link can never send a later
  // traversal into a loop.
  std::vector<char> visited(num_nodes, 0);
  std::vector<int64_t> stack = {root};
  uint64_t seen_nodes = 0, seen_data = 0;
  while (!stack.empty()) {
    const int64_t id = stack.back();
    stack.pop_back();
    if (visited[static_cast<size_t>(id)]) return bad("node referenced twice");
    visited[static_cast<size_t>(id)] = 1;
    ++seen_nodes;
    const Node& node = nodes[static_cast<size_t>(id)];
    if (node.leaf) {
      seen_data += node.entries.size();
    } else {
      for (const Entry& e : node.entries) stack.push_back(e.child);
    }
  }
  if (seen_nodes != num_nodes) return bad("orphan nodes");
  if (seen_data != num_data) return bad("entry total mismatch");

  nodes_ = std::move(nodes);
  root_ = static_cast<int>(root);
  num_entries_ = static_cast<size_t>(num_data);
  return Status::OK();
}

}  // namespace sapla
