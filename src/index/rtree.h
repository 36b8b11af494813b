#ifndef SAPLA_INDEX_RTREE_H_
#define SAPLA_INDEX_RTREE_H_

// R-tree (Guttman, SIGMOD 1984) with quadratic node splitting.
//
// The paper's baseline index: representations are mapped to feature vectors
// (index/feature_map.h), bounded by axis-aligned MBRs, split by minimum
// area waste, and branches are picked by minimum area enlargement. Fill
// factors default to the paper's §6 configuration (min 2, max 5).
//
// Search is exposed as a generic best-first traversal driven by a
// caller-supplied box lower-bound distance, so each method plugs in its own
// MINDIST (APCA regions, PLA quadratic, CHEBY clamp).

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "index/tree_stats.h"
#include "obs/counters.h"
#include "util/status.h"

namespace sapla {

/// Fill factors; defaults follow the paper's §6 setup (min 2, max 5).
struct RTreeOptions {
  size_t min_fill = 2;
  size_t max_fill = 5;
};

/// \brief Dynamic R-tree over fixed-dimensional points.
class RTree {
 public:
  using Options = RTreeOptions;

  RTree(size_t dims, const Options& options = {});

  /// Inserts a point with a caller-defined id. O(log size) expected.
  void Insert(const std::vector<double>& point, size_t id);

  /// Inserts an axis-aligned box entry (the APCA-family feature mapping
  /// stores per-segment raw value ranges). lo and hi must have dims()
  /// elements with lo[d] <= hi[d].
  void InsertBox(const std::vector<double>& lo, const std::vector<double>& hi,
                 size_t id);

  /// One data box for bulk loading.
  struct BulkEntry {
    std::vector<double> lo, hi;
    size_t id = 0;
  };

  /// \brief STR-style bulk load: replaces the tree's content with a packed
  /// tree over `entries` (levels are built by sorting on the box centers,
  /// cycling the sort dimension per level, and chunking at max_fill).
  /// Produces near-full leaves — the packed baseline for the ingest
  /// experiments. O(n log n).
  void BulkLoadStr(std::vector<BulkEntry> entries);

  size_t size() const { return num_entries_; }
  size_t dims() const { return dims_; }

  /// Structural statistics (Figs. 15/16).
  TreeStats ComputeStats() const;

  /// Lower-bound distance from the current query to a box [lo, hi].
  using BoxDistFn = std::function<double(const std::vector<double>& lo,
                                         const std::vector<double>& hi)>;
  /// Visits a leaf entry during search; receives the entry id and the
  /// current pruning bound, returns the (possibly tightened) bound.
  using VisitFn = std::function<double(size_t id, double bound)>;

  /// Best-first (branch-and-bound) traversal: nodes are expanded in
  /// increasing box-distance order and pruned once their distance exceeds
  /// the pruning bound — `bound` at the start, then the bound returned by
  /// `visit`. GEMINI's k-NN maps directly onto this. When `counters` is
  /// non-null the traversal records node expansions by level and
  /// node-level pruning into it (obs/counters.h).
  void BestFirstSearch(
      const BoxDistFn& box_dist, const VisitFn& visit,
      SearchCounters* counters = nullptr,
      double bound = std::numeric_limits<double>::infinity()) const;

  /// Deterministic byte encoding of the full tree structure (every node's
  /// entries with their boxes, child links and data ids). Restore of the
  /// produced bytes reconstructs a structurally identical tree.
  std::string Serialize() const;

  /// Replaces this tree's content with a previously serialized one. The
  /// tree must have the same dims() as the serialized one; `num_ids`
  /// bounds the valid data ids (the corpus size). Any inconsistency —
  /// truncation, out-of-range node/data ids, wrong box dimensionality,
  /// malformed lo/hi — is rejected without modifying the tree.
  Status Restore(const std::string& bytes, size_t num_ids);

 private:
  struct Entry {
    std::vector<double> lo, hi;
    int child = -1;   // node id, or -1 for a data entry
    size_t id = 0;    // data id when child == -1
  };
  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;
  };

  double Area(const Entry& e) const;
  double Enlargement(const Entry& box, const Entry& add) const;
  static void Extend(Entry* box, const Entry& add);
  Entry BoundingEntry(int node_id) const;

  // Returns the id of a new sibling if the subtree split, else -1.
  int InsertRec(int node_id, const Entry& entry);
  int SplitNode(int node_id, const Entry& extra);

  size_t dims_;
  Options options_;
  std::vector<Node> nodes_;
  int root_ = -1;
  size_t num_entries_ = 0;
};

}  // namespace sapla

#endif  // SAPLA_INDEX_RTREE_H_
