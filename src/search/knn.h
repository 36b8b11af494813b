#ifndef SAPLA_SEARCH_KNN_H_
#define SAPLA_SEARCH_KNN_H_

// k-NN similarity search (GEMINI framework, paper §1 and §6).
//
// SimilarityIndex owns one dataset's reduced representations plus a
// pluggable IndexBackend (index/index_backend.h) — an R-tree over feature
// MBRs or a DBCH-tree over lower-bounding distances. Queries run best-first
// branch-and-bound: nodes are expanded in increasing lower-bound order;
// leaf entries are filtered by the per-method lower-bounding distance and
// only survivors are measured against the raw series. The number of raw
// measurements is the numerator of the paper's pruning power (Eq. 14).
//
// Concurrency model: Build is single-threaded from the caller's view (the
// reduction loop fans across the global thread pool internally); after
// Build returns the index is immutable, and Knn / RangeSearch / stats are
// const and safe to call concurrently. KnnBatch / RangeSearchBatch fan
// independent queries across the pool (util/parallel.h) and preserve the
// serial per-query results — including exact per-query num_measured —
// bit-identically at any thread count.

#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "distance/kernels.h"
#include "geom/line_fit.h"
#include "index/index_backend.h"
#include "obs/counters.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "search/search_index.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace sapla {

/// \brief The k best (distance, id) pairs offered so far: a max-heap whose
/// top is the pruning bound. Ordered on (distance, id), so equal distances
/// keep the smaller id and the answer set — not just its order — is the
/// same for serial, batch, shard and generation variants. One heap may
/// collect the candidates of several indexes: IngestController runs every
/// generation of a query into one.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  void Offer(double dist, size_t id) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.emplace(dist, id);
    } else if (std::make_pair(dist, id) < heap_.top()) {
      heap_.pop();
      heap_.emplace(dist, id);
    }
  }

  /// Distance a candidate must not exceed to enter: infinity until the
  /// heap holds k pairs. Requires k > 0.
  double Bound() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.top().first;
  }

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }

  /// The pairs ascending by (distance, id).
  std::vector<std::pair<double, size_t>> Sorted() const;

 private:
  size_t k_;
  std::priority_queue<std::pair<double, size_t>> heap_;
};

/// \brief A raw query reduced once, under one (method, m), for every index
/// it searches: its reduction (leaf filter; PLA, CHEBY and DFT node bounds)
/// and the prefix sums of its raw values (the Dist_LB fitter, which also
/// keeps the raw copy the refine step measures). Not copyable: rep() views
/// the query's own store.
class ReducedQuery {
 public:
  ReducedQuery(const Reducer& reducer, size_t m, const std::vector<double>& raw);
  ReducedQuery(const ReducedQuery&) = delete;
  ReducedQuery& operator=(const ReducedQuery&) = delete;

  const std::vector<double>& raw() const { return fitter_.values(); }
  const RepView& rep() const { return rep_; }
  const PrefixFitter& fitter() const { return fitter_; }

 private:
  RepresentationStore store_;  // one entry: the query's reduction
  RepView rep_;
  PrefixFitter fitter_;
};

/// \brief How a search reports the entries of one index. Local entry i
/// enters the heap as ids[i] when `ids` is set, else as offset + i.
/// Entries whose reported id is in the sorted `hidden` list (tombstones)
/// are skipped before their lower bound is computed, so they count as
/// pruned at node level. The default reports local ids and hides nothing.
struct EntryIds {
  const uint64_t* ids = nullptr;
  size_t offset = 0;
  const std::vector<uint64_t>* hidden = nullptr;

  /// The same mapping for the entries from local id `lo` on (one shard's
  /// slice of a sharded index).
  EntryIds From(size_t lo) const {
    return {ids != nullptr ? ids + lo : nullptr,
            ids != nullptr ? 0 : offset + lo, hidden};
  }
};

/// \brief The leaf step of every k-NN path: the Dist_LB filter against the
/// reduced query, loosened by the entry's quantization slack, then —
/// unless the filter exceeds the heap's bound — the exact distance on the
/// raw series, offered to the heap. Tree leaves and the ingest memtable
/// scan both run it, so their distances and counters agree to the bit.
class KnnRefiner {
 public:
  KnnRefiner(const ReducedQuery& query, TopK* top, SearchCounters* counters)
      : query_(query), top_(top), c_(counters) {}

  /// Filters and refines the entry reported as `id`; returns the heap's
  /// bound afterwards.
  double Visit(size_t id, const RepView& rep, const std::vector<double>& raw,
               double slack);

 private:
  const ReducedQuery& query_;
  TopK* top_;
  SearchCounters* c_;
  DistanceScratch scratch_;  // amortizes Dist_PAR buffers across visits
};

/// Exact k-NN by full linear scan; num_measured == dataset size (0 when
/// k == 0).
KnnResult LinearScanKnn(const Dataset& dataset, const std::vector<double>& query,
                        size_t k);

/// Build-time telemetry (Fig. 14a's ingest time, Figs. 15/16 tree shape).
/// CPU seconds sum over all threads (CLOCK_PROCESS_CPUTIME_ID), so with a
/// parallel reduction reduce_cpu_seconds still measures total work while
/// reduce_wall_seconds shows the speedup.
struct BuildInfo {
  double reduce_cpu_seconds = 0.0;   ///< dimensionality-reduction CPU time
  double reduce_wall_seconds = 0.0;  ///< dimensionality-reduction wall time
  double insert_cpu_seconds = 0.0;   ///< tree insertion time (serial)
  TreeStats stats;
};

/// Back-compat alias: fill factors now live with the backend layer.
using SimilarityIndexOptions = IndexBackendOptions;

/// \brief A memory-resident similarity index over one dataset.
class SimilarityIndex : public SearchIndex {
 public:
  using Options = SimilarityIndexOptions;
  using BatchOptions = SearchBatchOptions;

  /// \param method reduction method used for every series and query.
  /// \param m representation-coefficient budget (Table 1).
  SimilarityIndex(Method method, size_t m, IndexKind kind,
                  const Options& options = {});
  ~SimilarityIndex();

  /// Reduces and inserts every series of `dataset`. The dataset must stay
  /// alive for the index's lifetime (raw series are referenced for the
  /// refinement step). Requires equal-length series of length >= 2. The
  /// per-series reduction fans across the global thread pool; insertion is
  /// serial (the trees are not concurrent structures).
  Status Build(const Dataset& dataset, BuildInfo* info = nullptr);

  /// Warm restart: adopts an already-reduced columnar corpus instead of
  /// re-running the reduction. `store` must describe `dataset` exactly
  /// (same method, size and series length); `tree_bytes`, when non-empty,
  /// is a serialized backend tree (IndexBackend::SerializeTree) restored
  /// without a single distance evaluation. An empty `tree_bytes` rebuilds
  /// the tree by the same serial id-order insertion Build uses — identical
  /// shape, but O(n) insert work. The store keeps the fresh process-unique
  /// id it was parsed with, so corpus_id() differs from the saved one.
  Status RestoreFromStore(const Dataset& dataset, RepresentationStore store,
                          const std::string& tree_bytes = {});

  /// Branch-and-bound k-NN for a raw query of the dataset's length.
  /// k == 0 returns an empty result without touching the index.
  KnnResult Knn(const std::vector<double>& query, size_t k) const override;

  /// The search behind Knn, over a query the caller reduced once under
  /// this index's method and m: best-first filter-and-refine into `top`,
  /// which may already hold other indexes' candidates — its bound prunes
  /// from the first node on. Entries enter under the ids `ids` reports.
  /// Returns this search's counters; entries it never filtered (hidden
  /// ones included) count as pruned at node level. Requires top->k() > 0.
  SearchCounters KnnInto(const ReducedQuery& query, const EntryIds& ids,
                         TopK* top) const;

  /// KnnLowerBound's counterpart: offers every entry not hidden, at its
  /// lower-bounding filter distance, to `top`. No raw series is read.
  SearchCounters KnnLowerBoundInto(const ReducedQuery& query,
                                   const EntryIds& ids, TopK* top) const;

  /// Approximate k-NN from the reduced representations only: every series
  /// is ranked by its lower-bounding filter distance to the query and no
  /// raw series is touched (num_measured == 0). The reported distances are
  /// lower bounds on the true distances, so the answer may differ from
  /// Knn's — this is the degraded fallback the serving layer returns for
  /// deadline-exceeded requests (serve/service.h).
  KnnResult KnnLowerBound(const std::vector<double>& query,
                          size_t k) const override;

  /// Approximate range query from the lower bounds only: every series
  /// whose lower-bounding distance is <= radius (a superset of the exact
  /// answer ids, with lower-bound distances). num_measured == 0.
  KnnResult RangeSearchLowerBound(const std::vector<double>& query,
                                  double radius) const override;

  /// GEMINI epsilon-range query: every series whose exact Euclidean
  /// distance to `query` is <= radius, ascending by distance. Nodes and
  /// entries are pruned at `radius` by the same lower bounds as Knn.
  KnnResult RangeSearch(const std::vector<double>& query,
                        double radius) const override;

  // The num_threads-only batch conveniences live on SearchIndex.
  using SearchIndex::KnnBatch;
  using SearchIndex::RangeSearchBatch;

  /// Batch k-NN with per-query cancellation; non-cancelled entries are
  /// exactly Knn(queries[i], k) — same neighbors, same num_measured — at
  /// every thread count.
  std::vector<KnnResult> KnnBatch(
      const std::vector<std::vector<double>>& queries, size_t k,
      const BatchOptions& options) const override;

  /// Batch range query with per-query cancellation; non-cancelled entries
  /// are exactly RangeSearch(queries[i], radius).
  std::vector<KnnResult> RangeSearchBatch(
      const std::vector<std::vector<double>>& queries, double radius,
      const BatchOptions& options) const override;

  Method method() const override { return method_; }
  IndexKind kind() const override { return kind_; }
  /// Representation-coefficient budget the index was built with.
  size_t m() const { return m_; }
  const Options& options() const { return options_; }
  /// Number of indexed series (0 before Build).
  size_t dataset_size() const override { return dataset_ ? dataset_->size() : 0; }
  /// Length of the indexed series (0 before Build). The serving layer
  /// validates incoming query lengths against this.
  size_t series_length() const override {
    return dataset_ ? dataset_->length() : 0;
  }
  /// The backend after Build (nullptr before); exposed for diagnostics.
  const IndexBackend* backend() const { return backend_.get(); }
  /// The dataset passed to Build/RestoreFromStore (nullptr before); the
  /// snapshot layer fingerprints it.
  const Dataset* dataset() const { return dataset_; }
  /// The columnar corpus (empty before Build or with legacy_aos_corpus).
  const RepresentationStore& store() const { return store_; }
  /// Stable corpus identity: regenerated by every Build, so results cached
  /// under an old corpus (serve/result_cache.h) can never be served against
  /// a rebuilt index.
  uint64_t corpus_id() const override { return store_.id(); }
  /// Resident-vs-mapped bytes of the corpus store (cold stores report
  /// their frame-cache hit/miss counters too).
  StoreFootprint footprint() const override { return store_.footprint(); }
  TreeStats stats() const;

 private:
  /// KnnInto's body; kMapped adds the id map and the hidden-id lookup, so
  /// a standalone index's visits carry neither.
  template <bool kMapped>
  SearchCounters SearchKnn(const ReducedQuery& query, const EntryIds& ids,
                           TopK* top) const;

  /// Lower-bounding filter distances of `count` entries — local ids
  /// `locals[j]`, or 0 .. count-1 when null — loosened by each entry's
  /// quantization slack so they stay true lower bounds.
  std::vector<double> FilterBounds(const ReducedQuery& query,
                                   const size_t* locals, size_t count) const;

  /// View of series `id`'s reduction over the active corpus layout; `pin`
  /// keeps a cold store's decoded frame alive while the view is in use
  /// (untouched for hot stores and the AoS layout).
  RepView corpus_view(size_t id, StoreReadPin* pin) const {
    return options_.legacy_aos_corpus ? RepView::Of(reps_[id])
                                      : store_.view(id, pin);
  }

  Method method_;
  size_t m_;
  IndexKind kind_;
  Options options_;

  const Dataset* dataset_ = nullptr;
  std::unique_ptr<Reducer> reducer_;
  /// Canonical corpus: contiguous SoA columns (representation_store.h).
  RepresentationStore store_;
  /// Legacy AoS corpus, populated only with Options::legacy_aos_corpus
  /// (the A/B layout-validation path; see store_parity_test.cc).
  std::vector<Representation> reps_;
  std::unique_ptr<IndexBackend> backend_;
};

}  // namespace sapla

#endif  // SAPLA_SEARCH_KNN_H_
