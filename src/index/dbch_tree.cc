#include "index/dbch_tree.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/binio.h"
#include "util/status.h"

namespace sapla {

namespace {
// Format tag for serialized DbchTree bytes ("DBT1"); bumped on change.
constexpr uint32_t kDbchBytesMagic = 0x31544244;
}  // namespace

DbchTree::DbchTree(PairDistFn pair_dist, const Options& options)
    : pair_dist_(std::move(pair_dist)), options_(options) {
  SAPLA_DCHECK(options_.min_fill >= 1 &&
               options_.max_fill >= 2 * options_.min_fill - 1);
  nodes_.push_back(Node{});
  root_ = 0;
}

std::vector<size_t> DbchTree::HullCandidates(const Node& node) const {
  if (node.leaf) return node.entries;
  // Internal node: only the children's hull endpoints (paper §5.3 limits
  // the pair computation to the sub-hull constructors).
  std::vector<size_t> cands;
  cands.reserve(2 * node.children.size());
  for (const int c : node.children) {
    const Node& child = nodes_[static_cast<size_t>(c)];
    cands.push_back(child.hull_a);
    if (child.hull_b != child.hull_a) cands.push_back(child.hull_b);
  }
  return cands;
}

void DbchTree::RecomputeHull(int node_id) {
  Node& node = nodes_[static_cast<size_t>(node_id)];
  const std::vector<size_t> cands = HullCandidates(node);
  SAPLA_DCHECK(!cands.empty());
  node.hull_a = node.hull_b = cands[0];
  node.volume = 0.0;
  for (size_t i = 0; i < cands.size(); ++i) {
    for (size_t j = i + 1; j < cands.size(); ++j) {
      const double d = pair_dist_(cands[i], cands[j]);
      if (d > node.volume) {
        node.volume = d;
        node.hull_a = cands[i];
        node.hull_b = cands[j];
      }
    }
  }
  // Endpoint radii for the sound node-distance regime. Leaves measure every
  // entry directly; internal nodes compose through each child's endpoints
  // (d(a, x) <= d(a, child endpoint) + child radius for any x under the
  // child, so the min over the two endpoints is still an upper bound).
  // Children are always recomputed before their parent (insertion returns
  // bottom-up), so child radii are fresh here.
  node.radius_a = node.radius_b = 0.0;
  if (node.leaf) {
    for (const size_t id : node.entries) {
      if (id != node.hull_a)
        node.radius_a = std::max(node.radius_a, pair_dist_(node.hull_a, id));
      if (id != node.hull_b)
        node.radius_b = std::max(node.radius_b, pair_dist_(node.hull_b, id));
    }
  } else {
    for (const int c : node.children) {
      const Node& child = nodes_[static_cast<size_t>(c)];
      const double via_a_a = pair_dist_(node.hull_a, child.hull_a);
      const double via_a_b = child.hull_b == child.hull_a
                                 ? via_a_a
                                 : pair_dist_(node.hull_a, child.hull_b);
      node.radius_a = std::max(node.radius_a,
                               std::min(via_a_a + child.radius_a,
                                        via_a_b + child.radius_b));
      const double via_b_a = pair_dist_(node.hull_b, child.hull_a);
      const double via_b_b = child.hull_b == child.hull_a
                                 ? via_b_a
                                 : pair_dist_(node.hull_b, child.hull_b);
      node.radius_b = std::max(node.radius_b,
                               std::min(via_b_a + child.radius_a,
                                        via_b_b + child.radius_b));
    }
  }
}

void DbchTree::Insert(size_t id) {
  const int sibling = InsertRec(root_, id);
  if (sibling >= 0) {
    Node new_root;
    new_root.leaf = false;
    new_root.children = {root_, sibling};
    nodes_.push_back(std::move(new_root));
    root_ = static_cast<int>(nodes_.size()) - 1;
    RecomputeHull(root_);
  }
  ++num_entries_;
}

int DbchTree::InsertRec(int node_id, size_t entry) {
  {
    Node& node = nodes_[static_cast<size_t>(node_id)];
    if (node.leaf) {
      node.entries.push_back(entry);
      if (node.entries.size() <= options_.max_fill) {
        RecomputeHull(node_id);
        return -1;
      }
      return SplitNode(node_id);
    }
  }

  // Branch picking: the child whose hull volume grows least when `entry`
  // joins it (growth estimated from the entry's distances to the child's
  // hull endpoints); ties broken by the smaller current volume.
  int best_child = -1;
  double best_increase = std::numeric_limits<double>::infinity();
  double best_volume = std::numeric_limits<double>::infinity();
  {
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    for (const int c : node.children) {
      const Node& child = nodes_[static_cast<size_t>(c)];
      const double grown =
          std::max({child.volume, pair_dist_(entry, child.hull_a),
                    pair_dist_(entry, child.hull_b)});
      const double increase = grown - child.volume;
      if (increase < best_increase ||
          (increase == best_increase && child.volume < best_volume)) {
        best_increase = increase;
        best_volume = child.volume;
        best_child = c;
      }
    }
  }
  SAPLA_DCHECK(best_child >= 0);

  const int split = InsertRec(best_child, entry);
  Node& node = nodes_[static_cast<size_t>(node_id)];  // may have moved
  if (split >= 0) node.children.push_back(split);
  if (node.children.size() <= options_.max_fill) {
    RecomputeHull(node_id);
    return -1;
  }
  return SplitNode(node_id);
}

int DbchTree::SplitNode(int node_id) {
  const bool leaf = nodes_[static_cast<size_t>(node_id)].leaf;

  // A representative entry per member: the member itself for leaves, the
  // child's hull_a for internal nodes (used for seed/assignment distances).
  std::vector<size_t> reps;
  std::vector<int> members;  // child node ids for internal splits
  if (leaf) {
    reps = nodes_[static_cast<size_t>(node_id)].entries;
  } else {
    members = nodes_[static_cast<size_t>(node_id)].children;
    for (const int c : members)
      reps.push_back(nodes_[static_cast<size_t>(c)].hull_a);
  }
  const size_t count = reps.size();
  SAPLA_DCHECK(count > options_.max_fill);

  // Seeds: the pair with the maximum lower-bounding distance (§5.3),
  // replacing Guttman's max-area-waste pair.
  size_t seed_a = 0, seed_b = 1;
  double worst = -1.0;
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      const double d = pair_dist_(reps[i], reps[j]);
      if (d > worst) {
        worst = d;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  // Assign members to the nearer seed, honoring min fill.
  std::vector<size_t> group_a{seed_a}, group_b{seed_b};
  std::vector<std::pair<double, size_t>> rest;  // (d_a - d_b, index)
  for (size_t i = 0; i < count; ++i) {
    if (i == seed_a || i == seed_b) continue;
    const double da = pair_dist_(reps[i], reps[seed_a]);
    const double db = pair_dist_(reps[i], reps[seed_b]);
    rest.emplace_back(da - db, i);
  }
  // Strongest preferences first so min-fill forcing displaces the weakest.
  std::sort(rest.begin(), rest.end(), [](const auto& x, const auto& y) {
    return std::abs(x.first) > std::abs(y.first);
  });
  size_t remaining = rest.size();
  for (const auto& [pref, idx] : rest) {
    if (group_a.size() + remaining == options_.min_fill) {
      group_a.push_back(idx);
    } else if (group_b.size() + remaining == options_.min_fill) {
      group_b.push_back(idx);
    } else if (pref < 0.0 ||
               (pref == 0.0 && group_a.size() <= group_b.size())) {
      group_a.push_back(idx);
    } else {
      group_b.push_back(idx);
    }
    --remaining;
  }

  Node a, b;
  a.leaf = b.leaf = leaf;
  if (leaf) {
    for (const size_t i : group_a) a.entries.push_back(reps[i]);
    for (const size_t i : group_b) b.entries.push_back(reps[i]);
  } else {
    for (const size_t i : group_a) a.children.push_back(members[i]);
    for (const size_t i : group_b) b.children.push_back(members[i]);
  }
  nodes_[static_cast<size_t>(node_id)] = std::move(a);
  nodes_.push_back(std::move(b));
  const int sibling = static_cast<int>(nodes_.size()) - 1;
  RecomputeHull(node_id);
  RecomputeHull(sibling);
  return sibling;
}

double DbchTree::NodeDist(const Node& node,
                          const QueryDistFn& query_dist) const {
  if (options_.sound_bounds) {
    // Endpoint-radius bound: for any entry x under the node, the triangle
    // inequality gives d(q, x) >= d(q, a) - d(a, x) >= d(q, a) - radius_a
    // (and likewise through b). Requires the pairwise distance to be a
    // metric; otherwise no node-level bound is valid and we never prune.
    if (!options_.metric_pair_dist) return 0.0;
    const double du = query_dist(node.hull_a);
    const double dl =
        node.hull_b == node.hull_a ? du : query_dist(node.hull_b);
    return std::max({0.0, du - node.radius_a, dl - node.radius_b});
  }
  // §5.3: inside the hull -> 0; outside -> the smaller hull distance.
  const double du = query_dist(node.hull_a);
  const double dl =
      node.hull_b == node.hull_a ? du : query_dist(node.hull_b);
  if (du < node.volume && dl < node.volume) return 0.0;
  return std::min(du, dl);
}

TreeStats DbchTree::ComputeStats() const {
  TreeStats stats;
  stats.entries = num_entries_;
  size_t leaf_entry_sum = 0;
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
      for (const int c : node.children) q.push({c, item.depth + 1});
    }
  }
  stats.avg_leaf_entries =
      stats.leaf_nodes ? static_cast<double>(leaf_entry_sum) /
                             static_cast<double>(stats.leaf_nodes)
                       : 0.0;
  return stats;
}

void DbchTree::BestFirstSearch(const QueryDistFn& query_dist,
                               const VisitFn& visit, SearchCounters* counters,
                               double bound) const {
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
      // The popped item and everything still queued were avoided.
      if (counters != nullptr) counters->nodes_pruned += 1 + pq.size();
      break;
    }
    const Node& node = nodes_[static_cast<size_t>(item.node)];
    if (counters != nullptr) counters->CountNodeVisit(item.level, node.leaf);
    if (node.leaf) {
      for (const size_t id : node.entries) bound = visit(id, bound);
    } else {
      for (const int c : node.children) {
        const double d = NodeDist(nodes_[static_cast<size_t>(c)], query_dist);
        if (d <= bound) {
          pq.push({d, c, item.level + 1});
        } else if (counters != nullptr) {
          ++counters->nodes_pruned;
        }
      }
    }
  }
}

std::string DbchTree::Serialize() const {
  std::string out;
  binio::PutU32(&out, kDbchBytesMagic);
  binio::PutU64(&out, num_entries_);
  binio::PutI64(&out, root_);
  binio::PutU64(&out, nodes_.size());
  for (const Node& node : nodes_) {
    binio::PutU32(&out, node.leaf ? 1 : 0);
    binio::PutU64(&out, node.hull_a);
    binio::PutU64(&out, node.hull_b);
    binio::PutF64(&out, node.volume);
    binio::PutF64(&out, node.radius_a);
    binio::PutF64(&out, node.radius_b);
    binio::PutU32(&out, static_cast<uint32_t>(node.count()));
    if (node.leaf) {
      for (const size_t id : node.entries) binio::PutU64(&out, id);
    } else {
      for (const int c : node.children) binio::PutI64(&out, c);
    }
  }
  return out;
}

Status DbchTree::Restore(const std::string& bytes, size_t num_ids) {
  const auto bad = [](const char* what) {
    return Status::InvalidArgument(std::string("dbch restore: ") + what);
  };
  binio::Reader r(bytes);
  if (r.ReadU32() != kDbchBytesMagic) return bad("bad magic");
  const uint64_t num_data = r.ReadU64();
  const int64_t root = r.ReadI64();
  const uint64_t num_nodes = r.ReadU64();
  if (!r.ok()) return bad("truncated header");
  if (num_nodes == 0 || num_nodes > bytes.size()) return bad("node count");
  if (root < 0 || static_cast<uint64_t>(root) >= num_nodes)
    return bad("root out of range");

  std::vector<Node> nodes(num_nodes);
  for (Node& node : nodes) {
    const uint32_t leaf = r.ReadU32();
    node.hull_a = r.ReadU64();
    node.hull_b = r.ReadU64();
    node.volume = r.ReadF64();
    node.radius_a = r.ReadF64();
    node.radius_b = r.ReadF64();
    const uint32_t count = r.ReadU32();
    if (!r.ok() || leaf > 1) return bad("malformed node header");
    node.leaf = leaf == 1;
    if (count > r.remaining() / 8) return bad("entry count");
    // The hull endpoints are corpus ids for leaves and internal nodes alike
    // (internal hulls come from children's endpoints). An empty root —
    // the pre-insert state — legitimately has hull ids of 0.
    if (count > 0 && (node.hull_a >= num_ids || node.hull_b >= num_ids))
      return bad("hull id out of range");
    if (!(node.volume >= 0.0)) return bad("non-finite or negative volume");
    if (!(node.radius_a >= 0.0) || !(node.radius_b >= 0.0))
      return bad("non-finite or negative endpoint radius");
    if (node.leaf) {
      node.entries.resize(count);
      for (size_t& id : node.entries) {
        id = r.ReadU64();
        if (!r.ok()) return bad("truncated entries");
        if (id >= num_ids) return bad("entry id out of range");
      }
    } else {
      if (count == 0) return bad("internal node without children");
      node.children.resize(count);
      for (int& c : node.children) {
        c = static_cast<int>(r.ReadI64());
        if (!r.ok()) return bad("truncated children");
        if (c < 0 || static_cast<uint64_t>(c) >= num_nodes)
          return bad("child node out of range");
      }
    }
  }
  if (r.remaining() != 0) return bad("trailing bytes");

  // Reachability walk: the serialized tree must be exactly the reachable
  // set with no cycles or shared children, and leaf entries must sum to the
  // declared total.
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
      for (const int c : node.children) stack.push_back(c);
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
