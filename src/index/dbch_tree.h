#ifndef SAPLA_INDEX_DBCH_TREE_H_
#define SAPLA_INDEX_DBCH_TREE_H_

// DBCH-tree — Distance Based Covering with Convex Hull (paper §5.2-5.3).
//
// An R-tree-shaped index whose nodes are bounded not by MBRs but by the two
// member representations with the maximum lower-bounding distance between
// them (the "convex hull"); Dist_PAR(u, l) is the node's *volume*. Node
// splitting picks the two entries with maximum pairwise distance as seeds
// and assigns the rest to the nearer seed; branch picking descends into the
// child whose volume grows least.
//
// Two node-distance regimes (Options::sound_bounds):
//
//   paper (default)  §5.3: zero when the query lies within the hull (both
//                    hull distances below the volume), otherwise the
//                    smaller hull distance — which, as the paper notes, is
//                    not guaranteed to lower-bound through internal nodes
//                    (measured by the accuracy experiment, Fig. 13b).
//   sound            triangle-inequality bound max(d(q,a) - r_a,
//                    d(q,b) - r_b, 0), where r_a/r_b upper-bound the
//                    distance from each hull endpoint to every descendant
//                    entry. Valid whenever the pairwise distance satisfies
//                    the triangle inequality (every built-in method except
//                    SAX MINDIST); with metric_pair_dist = false node-level
//                    pruning is disabled outright, so the traversal stays
//                    exact for non-metric distances too. The sharded
//                    serving tier (search/sharded_index.h) requires this
//                    regime: its merge contract needs per-shard answers
//                    that do not depend on how the corpus was partitioned.
//
// The endpoint radii are maintained on every insert and travel with
// Serialize, so either regime can search a restored tree.
//
// The tree is generic over the distance: it stores entry ids and calls a
// user-supplied pairwise distance (LowerBoundDistance over stored
// representations in all experiments).

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "index/tree_stats.h"
#include "obs/counters.h"
#include "util/status.h"

namespace sapla {

/// Fill factors; defaults follow the paper's §6 setup (min 2, max 5).
struct DbchTreeOptions {
  size_t min_fill = 2;
  size_t max_fill = 5;
  /// Search with the rigorous endpoint-radius node distance instead of the
  /// paper's §5.3 heuristic (see the file comment). Exact answers when the
  /// pairwise distance is a metric; the default keeps the paper's
  /// approximate-but-faster behavior (Fig. 13b).
  bool sound_bounds = false;
  /// Whether the pairwise distance satisfies the triangle inequality. Only
  /// consulted under sound_bounds: when false, node-level pruning is
  /// disabled (the radius bound would be invalid) and only the leaf-level
  /// filter prunes.
  bool metric_pair_dist = true;
};

/// \brief Distance-based covering tree over entry ids.
class DbchTree {
 public:
  using Options = DbchTreeOptions;

  /// Lower-bounding distance between two stored entries (by id).
  using PairDistFn = std::function<double(size_t, size_t)>;
  /// Lower-bounding distance from the current query to a stored entry.
  using QueryDistFn = std::function<double(size_t)>;
  /// Visits a leaf entry; receives the id and the current pruning bound and
  /// returns the (possibly tightened) bound.
  using VisitFn = std::function<double(size_t id, double bound)>;

  DbchTree(PairDistFn pair_dist, const Options& options = {});

  /// Inserts entry `id`; the distance callback must already resolve it.
  void Insert(size_t id);

  size_t size() const { return num_entries_; }

  /// Structural statistics (Figs. 15/16).
  TreeStats ComputeStats() const;

  /// Best-first traversal using the §5.3 node distance. Nodes whose distance
  /// exceeds the pruning bound — `bound` at the start, then the bound
  /// returned by `visit` — are pruned. When `counters` is non-null the
  /// traversal records node expansions by level and node-level pruning into
  /// it (obs/counters.h).
  void BestFirstSearch(
      const QueryDistFn& query_dist, const VisitFn& visit,
      SearchCounters* counters = nullptr,
      double bound = std::numeric_limits<double>::infinity()) const;

  /// Deterministic byte encoding of the full tree structure (node shapes,
  /// entry ids, hull endpoints and volumes). Restore of the produced bytes
  /// reconstructs an identical traversal without a single pair_dist call —
  /// the hulls and volumes travel with the bytes, and search never invokes
  /// the pairwise distance.
  std::string Serialize() const;

  /// Replaces this tree's content with a previously serialized one.
  /// `num_ids` bounds the valid entry/hull ids (the corpus size). Any
  /// inconsistency — truncation, out-of-range node/entry ids, non-finite
  /// volume — is rejected without modifying the tree.
  Status Restore(const std::string& bytes, size_t num_ids);

 private:
  struct Node {
    bool leaf = true;
    std::vector<int> children;    // node ids (internal) — unused for leaves
    std::vector<size_t> entries;  // entry ids (leaf) — unused for internal
    size_t hull_a = 0, hull_b = 0;
    double volume = 0.0;
    /// Upper bounds on the pairwise distance from hull_a / hull_b to any
    /// entry under this node (exact for leaves, recursively composed for
    /// internal nodes). Feed the sound node-distance regime.
    double radius_a = 0.0, radius_b = 0.0;
    size_t count() const { return leaf ? entries.size() : children.size(); }
  };

  // Recomputes a node's hull: leaves consider all entries; internal nodes
  // consider only the children's hull endpoints (paper §5.3).
  void RecomputeHull(int node_id);
  std::vector<size_t> HullCandidates(const Node& node) const;
  double NodeDist(const Node& node, const QueryDistFn& query_dist) const;

  // Returns new sibling node id on split, -1 otherwise.
  int InsertRec(int node_id, size_t entry);
  int SplitNode(int node_id);

  PairDistFn pair_dist_;
  Options options_;
  std::vector<Node> nodes_;
  int root_ = -1;
  size_t num_entries_ = 0;
};

}  // namespace sapla

#endif  // SAPLA_INDEX_DBCH_TREE_H_
