#ifndef SAPLA_INGEST_INGEST_CONTROLLER_H_
#define SAPLA_INGEST_INGEST_CONTROLLER_H_

// Continuous ingestion: live inserts/deletes over the static index stack.
//
// The rest of the repo is build-once/query-many; IngestController turns it
// into an LSM-style living corpus behind the same SearchIndex interface the
// serving layer already fronts (serve/service.h needs no changes):
//
//   memtable  --seal-->  minor generations  --compact-->  main generation
//
//  - Arriving series land in a MUTABLE MEMTABLE, reduced online as they
//    arrive (Reducer::ReduceInto, or core/streaming_sapla.h for SAPLA with
//    Options::streaming_reduction) into a small RepresentationStore, and
//    are answered by an LB-filtered exact scan — no tree needed at this
//    size.
//  - When the memtable reaches Options::memtable_max entries it is SEALED
//    into an immutable MINOR GENERATION: a small SimilarityIndex adopting
//    the memtable's already-reduced store via RestoreFromStore (no
//    re-reduction; the tree is built by the same serial id-order insertion
//    a fresh Build uses).
//  - When Options::compact_min_minors minors have accumulated they COMPACT
//    with the previous main generation into a fresh ShardedIndex
//    (search/sharded_index.h) built off to the side — the PR 6 live-swap
//    machinery — dropping tombstoned and TTL-expired entries for good.
//
// Epoch-based visibility. Every published state is an immutable Epoch (main
// + sealed minors + a frozen memtable snapshot + the tombstone set) behind
// a shared_ptr, exactly the generation idiom of ShardedIndex: a query pins
// the epoch once (one mutex-guarded pointer copy), works entirely on
// immutable data, and never blocks on — or is blocked by — writers. Each
// mutation publishes a fresh Epoch; the memtable snapshot is copy-on-write
// (O(memtable_max) per insert — deliberately tiny, that is what seals are
// for). corpus_id() mixes a publication counter with every generation's
// store id, so the serve result cache is structurally unable to return a
// hit from a previous epoch.
//
// Answer parity (tests/ingest_parity_test.cc). Exact Knn / RangeSearch
// answers are a function of the VISIBLE RAW SERIES SET only: every
// generation searches its subset exactly (dbch_sound_bounds is forced, as
// in ShardedIndex) and refinement distances are EuclideanDistance on the
// identical raw vectors. A k-NN query is reduced once and runs main,
// minors and memtable in turn into ONE top-k heap keyed by global id, each
// generation pruning against the bound the earlier ones left; tombstoned
// ids are skipped before their lower bound is computed, so nothing
// invisible ever enters the heap and no generation over-fetches. The
// (distance, global id) heap order is isomorphic to the static index's
// (distance, dense id) order because global ids are assigned
// monotonically. Hence, after ANY interleaving of inserts/deletes/seals/
// compactions, answers are bit-identical to a from-scratch SimilarityIndex
// over the visible set. Range queries search each generation on its own
// and merge the filtered answers.
//
// Deletes & TTL. Deleting a memtable entry rewrites the memtable (lossless
// store round-trip, no re-reduction); deleting sealed data records a
// TOMBSTONE applied at merge time and physically dropped at the next
// compaction. TTLs are LOGICAL — measured in mutation sequence numbers,
// not wall time — so expiry is deterministic and WAL-replayable: an entry
// inserted at sequence s with ttl t is visible while the epoch sequence is
// <= s + t (i.e. it survives its own insert plus the next t-1 mutations).
//
// Durability (Options::durable_dir). Every acknowledged mutation is framed
// to a CRC32C write-ahead log (ingest/wal.h) BEFORE it is applied; a kill
// at any point loses nothing acknowledged. Recover() replays manifest +
// snapshots + WAL: Checkpoint() compacts, saves the main generation's
// per-shard snapshots (search/snapshot.h) next to a CRC'd manifest, and
// atomically truncates the WAL to just the memtable's records (original
// sequence numbers preserved, so TTL visibility replays exactly). Fault
// points ingest/{wal_open,wal_append,wal_sync,seal,compact,checkpoint}
// let sapla_chaos kill/restart mid-ingest (tools/sapla_chaos.cc).
//
// Concurrency contract: any number of concurrent readers (all SearchIndex
// methods, const); mutations are serialized internally by one writer mutex
// and may run concurrently with readers. Recover() must complete before
// the first concurrent use.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/streaming_sapla.h"
#include "ingest/wal.h"
#include "obs/metrics.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "search/knn.h"
#include "search/search_index.h"
#include "search/sharded_index.h"
#include "ts/time_series.h"
#include "util/resource_budget.h"
#include "util/status.h"

namespace sapla {

/// \brief Tuning knobs for one IngestController.
struct IngestOptions {
  /// Seal the memtable into a minor generation when it reaches this many
  /// entries (0 = only manual Seal()).
  size_t memtable_max = 64;
  /// Compact when this many sealed minors have accumulated (0 = only
  /// manual Compact()).
  size_t compact_min_minors = 4;
  /// Admission control: refuse inserts (kOverloaded) while this many
  /// sealed minors await compaction. 0 = unlimited.
  size_t max_minors = 64;
  /// Shard count of the main generation's ShardedIndex.
  size_t num_shards = 1;
  /// Per-generation index options. dbch_sound_bounds is forced on (the
  /// multi-generation merge is a partition; see file comment) and
  /// legacy_aos_corpus is rejected.
  SimilarityIndex::Options index;
  /// SAPLA only: reduce arriving series with the online StreamingSapla
  /// scan instead of the batch reducer. Answers stay exact (streaming
  /// segments are least-squares fits, so Dist_LB still lower-bounds), but
  /// differ from batch-reduced pruning characteristics.
  bool streaming_reduction = false;
  /// Directory for WAL + checkpoints; empty = no durability. The caller
  /// creates the directory and calls Recover() once before use.
  std::string durable_dir;
  /// Codec for checkpointed shard snapshots (search/snapshot.h): a lossy
  /// step writes quantized v4 store sections — smaller checkpoints, and a
  /// recovered controller still answers id-identically (slack-adjusted
  /// pruning + raw refinement). Default: lossless, byte-stable v3.
  SnapshotWriteOptions snapshot_codec;
  /// Memory governance (util/resource_budget.h): the controller accounts
  /// the memtable's and every sealed minor's approximate bytes against
  /// this budget (force-reserved — the data already exists; overflow is
  /// what surfaces as pressure). Under soft/hard pressure inserts first
  /// force a seal + compaction (moving bytes into the unmetered main
  /// generation); inserts arriving while pressure is still hard are shed
  /// with kOverloaded. Null = no metering.
  std::shared_ptr<ResourceBudget> memory_budget;
};

/// \brief Live-mutable searchable corpus behind the SearchIndex interface.
class IngestController : public SearchIndex {
 public:
  /// `series_length` is fixed up front so the serving layer can validate
  /// query lengths before the first insert arrives.
  IngestController(Method method, size_t m, IndexKind kind,
                   size_t series_length, const IngestOptions& options);
  ~IngestController() override;

  IngestController(const IngestController&) = delete;
  IngestController& operator=(const IngestController&) = delete;

  /// Replays manifest + shard snapshots + WAL from Options::durable_dir.
  /// Call once, before any mutation or query, on a freshly constructed
  /// controller; a no-op without durable_dir. Snapshot restore failures
  /// fall back to a cold rebuild — only an unreadable manifest/WAL is an
  /// error.
  Status Recover();

  /// Inserts one series; returns its immutable global id. Validates
  /// length == series_length() and finite values. `ttl_mutations` > 0
  /// makes the entry expire after that many further mutations (logical
  /// TTL; see file comment). May return kOverloaded under admission
  /// control, or an I/O error when the WAL append fails (the mutation is
  /// then NOT applied).
  Result<uint64_t> Insert(const std::vector<double>& values, int label = -1,
                          uint64_t ttl_mutations = 0);

  /// Deletes one series by global id. NotFound for unknown, already
  /// deleted, or already expired ids.
  Status Delete(uint64_t id);

  /// Seals the current memtable into a minor generation (no-op when the
  /// memtable is empty). Auto-triggered by Options::memtable_max.
  Status Seal();

  /// Merges main + minors − tombstones/expired into a fresh main
  /// generation built off to the side, then publishes it. The memtable is
  /// untouched. Auto-triggered by Options::compact_min_minors.
  Status Compact();

  /// Durable checkpoint: Compact(), save per-shard snapshots + manifest,
  /// truncate the WAL to the memtable's records. Requires durable_dir.
  Status Checkpoint();

  // ---- SearchIndex: epoch-pinned scatter/merge over main + minors +
  // memtable with tombstone filtering. Never blocks on writers.
  KnnResult Knn(const std::vector<double>& query, size_t k) const override;
  /// Knn plus per-generation attribution (obs/explain.h): one part per
  /// generation the query touched (main, minorN, memtable) with wall time,
  /// contributed neighbors and counters, plus the pinned epoch sequence.
  /// Part counters sum exactly to the merged counters.
  KnnResult KnnExplain(const std::vector<double>& query, size_t k,
                       obs::QueryExplain* explain) const override;
  KnnResult KnnLowerBound(const std::vector<double>& query,
                          size_t k) const override;
  KnnResult RangeSearch(const std::vector<double>& query,
                        double radius) const override;
  KnnResult RangeSearchLowerBound(const std::vector<double>& query,
                                  double radius) const override;

  using SearchIndex::KnnBatch;
  using SearchIndex::RangeSearchBatch;
  std::vector<KnnResult> KnnBatch(
      const std::vector<std::vector<double>>& queries, size_t k,
      const BatchOptions& options) const override;
  std::vector<KnnResult> RangeSearchBatch(
      const std::vector<std::vector<double>>& queries, double radius,
      const BatchOptions& options) const override;

  Method method() const override { return method_; }
  IndexKind kind() const override { return kind_; }
  size_t m() const { return m_; }
  /// Currently visible series (insertions minus deletions/expiries).
  size_t dataset_size() const override;
  size_t series_length() const override { return series_length_; }
  /// Mixes a monotonic publication counter with every generation's store
  /// id — changes on EVERY mutation, seal, compaction and recovery.
  uint64_t corpus_id() const override;
  /// Main generation's topology (1 / healthy while no main exists).
  size_t num_shards() const override;
  ShardHealth shard_health(size_t shard) const override;
  /// Sum over the pinned epoch: main shards + minors + memtable store.
  StoreFootprint footprint() const override;

  // ---- Introspection (tests, tools, benches).

  /// Structure of the currently published epoch.
  struct EpochStats {
    uint64_t seq = 0;
    size_t memtable_entries = 0;
    size_t minor_generations = 0;
    size_t main_entries = 0;
    size_t tombstones = 0;
    size_t visible = 0;
  };
  EpochStats GetEpochStats() const;

  /// Ascending global ids visible in the current epoch.
  std::vector<uint64_t> VisibleIds() const;
  /// The visible series, ascending by global id (parity baselines: a
  /// static index built over this dataset answers identically).
  Dataset VisibleDataset() const;

  /// Wait-free metrics registry (sapla_ingest_* families; obs/metrics.h).
  const IngestMetrics& metrics() const { return metrics_; }

 private:
  /// One memtable entry; `seq` and `expiry_seq` ride along so checkpoint
  /// WAL truncation can re-frame the entry verbatim.
  struct MemEntry {
    uint64_t id = 0;
    uint64_t seq = 0;
    uint64_t expiry_seq = 0;  // 0 = never expires
    int label = -1;
    std::vector<double> values;
  };

  /// Immutable memtable snapshot; rebuilt copy-on-write per mutation.
  /// store.view(i) is entries[i]'s reduction.
  struct Memtable {
    std::vector<MemEntry> entries;
    RepresentationStore store;
  };

  /// Immutable sealed generation. The index points into `dataset`, which
  /// lives at a stable address inside the shared_ptr'd Minor.
  struct Minor {
    Dataset dataset;            // ascending by global id
    std::vector<uint64_t> ids;  // local -> global
    std::unique_ptr<SimilarityIndex> index;
    /// Approximate bytes this generation pins (budget accounting), fixed
    /// at seal time.
    size_t budget_bytes = 0;
  };

  /// Immutable main generation (product of the last compaction). Its raw
  /// series live once, in the index's shards (ShardedIndex::ForEachSeries).
  struct MainGen {
    std::vector<uint64_t> ids;     // local -> global, ascending
    std::vector<uint64_t> expiry;  // per entry, 0 = none
    std::unique_ptr<ShardedIndex> index;
  };

  /// One immutable published state; queries pin it with one pointer copy.
  struct Epoch {
    std::shared_ptr<const MainGen> main;  // null before the first compact
    std::vector<std::shared_ptr<const Minor>> minors;
    std::shared_ptr<const Memtable> memtable;  // never null
    /// Sorted global ids present in some generation but not visible
    /// (explicitly deleted sealed entries + TTL-expired entries).
    std::vector<uint64_t> tombstones;
    uint64_t seq = 0;        // mutation sequence at publication
    uint64_t corpus_id = 0;  // see corpus_id()
    size_t visible = 0;      // visible series count
  };

  std::shared_ptr<const Epoch> PinEpoch() const;
  /// Rebuilds tombstones/corpus id and publishes the current writer state
  /// as a fresh epoch. Caller holds mu_.
  void PublishLocked();
  /// Reduces `values` into `store` (batch reducer or StreamingSapla).
  void ReduceIntoLocked(const std::vector<double>& values,
                        RepresentationStore* store);
  /// Applies an already-validated, already-logged insert. Caller holds
  /// mu_. Publishes; runs auto-seal/auto-compact.
  void ApplyInsertLocked(MemEntry entry);
  /// Applies an already-logged delete. Caller holds mu_.
  void ApplyDeleteLocked(uint64_t id, bool in_memtable);
  Status SealLocked();
  Status CompactLocked();
  /// Re-accounts memtable + minor bytes against Options::memory_budget
  /// (force-reserve/release of the delta). Caller holds mu_.
  void UpdateBudgetLocked();
  /// Graded pressure response at insert admission: returns kOverloaded
  /// when the budget is hard-saturated even after a forced seal +
  /// compaction. Caller holds mu_.
  Status AdmitInsertLocked();
  /// True when `id` is present and unexpired at the current sequence.
  bool VisibleLocked(uint64_t id) const;

  std::string WalPath() const;
  std::string ManifestPath() const;
  std::string SnapshotPrefix() const;
  Status WriteManifestLocked() const;
  Status LoadManifest(const std::string& path, std::vector<MemEntry>* out,
                      uint64_t* seq, uint64_t* next_id) const;

  /// LB-filtered exact scan of one pinned memtable into the query's shared
  /// heap (KnnRefiner, the step tree leaves run, so distances are
  /// bit-identical). Ids in the sorted `hidden` list are skipped before
  /// their lower bound; null hides nothing.
  SearchCounters MemtableKnn(const Memtable& mem,
                             const std::vector<uint64_t>* hidden,
                             const ReducedQuery& query, TopK* top) const;
  /// Offers every memtable entry not hidden at its lower bound.
  SearchCounters MemtableKnnLowerBound(const Memtable& mem,
                                       const std::vector<uint64_t>* hidden,
                                       const ReducedQuery& query,
                                       TopK* top) const;
  KnnResult MemtableRange(const Memtable& mem,
                          const std::vector<uint64_t>& tombstones,
                          const std::vector<double>& query, double radius,
                          bool lower_bound_only) const;

  /// Calls `fn(id, values, label)` for every visible series of `e` in
  /// ascending global id.
  static void ForEachVisible(
      const Epoch& e,
      const std::function<void(uint64_t, const std::vector<double>&, int)>&
          fn);

  /// Shared Knn body; fills `*explain` (when non-null) from the same
  /// per-generation searches it runs.
  KnnResult KnnWithExplain(const std::vector<double>& query, size_t k,
                           obs::QueryExplain* explain) const;

  const Method method_;
  const size_t m_;
  const IndexKind kind_;
  const size_t series_length_;
  IngestOptions options_;
  const uint64_t instance_id_;

  /// Serializes mutations (insert/delete/seal/compact/checkpoint/recover).
  /// Queries never take it.
  mutable std::mutex mu_;
  // ---- Writer state, guarded by mu_.
  uint64_t next_id_ = 0;
  uint64_t seq_ = 0;
  uint64_t publishes_ = 0;
  std::shared_ptr<const MainGen> main_;
  std::vector<std::shared_ptr<const Minor>> minors_;
  std::shared_ptr<const Memtable> memtable_;
  /// Where each live (present, possibly expired) id resides.
  enum class Loc : uint8_t { kMemtable, kSealed };
  std::unordered_map<uint64_t, Loc> live_;
  /// Explicit tombstones over sealed entries, cleared by compaction.
  std::unordered_set<uint64_t> deletes_;
  /// id -> absolute expiry sequence for every present TTL'd entry.
  std::unordered_map<uint64_t, uint64_t> ttl_;
  std::unique_ptr<Reducer> reducer_;
  std::unique_ptr<StreamingSapla> streamer_;  // streaming_reduction only
  WriteAheadLog wal_;
  bool recovering_ = false;  // Recover() applies without re-logging
  /// Bytes currently force-reserved on Options::memory_budget.
  size_t budget_accounted_ = 0;
  /// Sequence of the last forced seal/compact pressure response, so a
  /// burst of rejected inserts pays at most one relief attempt.
  uint64_t last_relief_seq_ = UINT64_MAX;

  /// Publication lock: one pointer copy per pin, one store per publish.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<const Epoch> epoch_;

  mutable IngestMetrics metrics_;
};

}  // namespace sapla

#endif  // SAPLA_INGEST_INGEST_CONTROLLER_H_
