// Ingest-vs-static parity: after ANY interleaving of inserts, deletes,
// TTL expiries, seals and compactions, an IngestController must answer
// every Knn / RangeSearch query with the same neighbors and bit-identical
// distances as a from-scratch SimilarityIndex built over exactly the
// currently visible series — for every Method x IndexKind, serially and
// batched at 1/2/8 threads, and with concurrent readers racing seals and
// compactions (the TSan target). Visibility itself is also pinned down:
// epochs are immutable, tombstones hide sealed deletes until compaction,
// logical TTLs expire deterministically, and corpus_id() changes on every
// publication so the serve cache can never alias epochs.

#include "ingest/ingest_controller.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "search/knn.h"
#include "serve/service.h"
#include "ts/synthetic_archive.h"
#include "util/rng.h"

namespace sapla {
namespace {

constexpr size_t kBudget = 12;
constexpr size_t kK = 5;
constexpr size_t kThreadCounts[] = {1, 2, 8};

Dataset SourceData(size_t id = 17, size_t length = 64, size_t count = 90) {
  SyntheticOptions opt;
  opt.length = length;
  opt.num_series = count;
  return MakeSyntheticDataset(id, opt);
}

std::vector<std::vector<double>> SomeQueries(const Dataset& ds) {
  std::vector<std::vector<double>> queries;
  for (const size_t qi : {0u, 7u, 19u, 33u, 58u})
    if (qi < ds.size()) queries.push_back(ds.series[qi].values);
  return queries;
}

/// The parity baseline: a fresh static index over the controller's
/// currently visible series, in ascending-global-id order, searching the
/// same sound-bounds regime every ingest generation is forced into.
struct StaticBaseline {
  Dataset dataset;               // must outlive the index
  std::vector<uint64_t> ids;     // dense static id -> global id
  std::unique_ptr<SimilarityIndex> index;
};

StaticBaseline BuildBaseline(const IngestController& ctrl) {
  StaticBaseline b;
  b.dataset = ctrl.VisibleDataset();
  b.ids = ctrl.VisibleIds();
  EXPECT_EQ(b.dataset.size(), b.ids.size());
  if (b.dataset.size() == 0) return b;
  SimilarityIndex::Options exact;
  exact.dbch_sound_bounds = true;
  b.index = std::make_unique<SimilarityIndex>(ctrl.method(), kBudget,
                                              ctrl.kind(), exact);
  EXPECT_TRUE(b.index->Build(b.dataset).ok());
  return b;
}

/// Maps the baseline's dense ids back to global ids; distances are copied
/// verbatim so the comparison below is bit-for-bit.
std::vector<std::pair<double, size_t>> ToGlobal(
    const KnnResult& r, const std::vector<uint64_t>& ids) {
  std::vector<std::pair<double, size_t>> out;
  out.reserve(r.neighbors.size());
  for (const auto& [dist, dense] : r.neighbors)
    out.emplace_back(dist, static_cast<size_t>(ids[dense]));
  return out;
}

void ExpectParity(const KnnResult& live, const KnnResult& baseline,
                  const std::vector<uint64_t>& ids, const std::string& label) {
  // Global ids are assigned monotonically, so the (distance, global id)
  // order is isomorphic to the baseline's (distance, dense id) order —
  // the remapped neighbor lists must be EXACTLY equal, doubles included.
  EXPECT_EQ(live.neighbors, ToGlobal(baseline, ids)) << label;
  EXPECT_FALSE(live.approximate) << label;
}

/// Checks every query in both Knn and RangeSearch flavours.
void ExpectFullParity(const IngestController& ctrl,
                      const std::vector<std::vector<double>>& queries,
                      const std::string& label) {
  const StaticBaseline b = BuildBaseline(ctrl);
  EXPECT_EQ(ctrl.dataset_size(), b.ids.size()) << label;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::string ql = label + " q" + std::to_string(qi);
    const auto& q = queries[qi];
    if (!b.index) {
      EXPECT_TRUE(ctrl.Knn(q, kK).neighbors.empty()) << ql;
      EXPECT_TRUE(ctrl.RangeSearch(q, 9.0).neighbors.empty()) << ql;
      continue;
    }
    ExpectParity(ctrl.Knn(q, kK), b.index->Knn(q, kK), b.ids, ql + " knn");
    for (const double radius : {4.0, 9.0, 100.0})
      ExpectParity(ctrl.RangeSearch(q, radius),
                   b.index->RangeSearch(q, radius), b.ids,
                   ql + " range r=" + std::to_string(radius));
  }
}

struct IngestCase {
  Method method;
  IndexKind kind;
};

class IngestSweep : public ::testing::TestWithParam<IngestCase> {
 protected:
  std::unique_ptr<IngestController> Make(const IngestOptions& options,
                                         size_t length = 64) {
    const auto [method, kind] = GetParam();
    return std::make_unique<IngestController>(method, kBudget, kind, length,
                                              options);
  }
};

// Inserts trickling through every lifecycle stage: memtable-only, sealed
// minors, compacted main, then a mixed tail — parity at every checkpoint.
TEST_P(IngestSweep, InsertsMatchStaticAtEveryLifecycleStage) {
  const Dataset src = SourceData();
  const auto queries = SomeQueries(src);
  IngestOptions options;
  options.memtable_max = 8;
  options.compact_min_minors = 3;
  options.num_shards = 2;
  auto ctrl = Make(options);

  ExpectFullParity(*ctrl, queries, "empty");
  size_t inserted = 0;
  for (const TimeSeries& ts : src.series) {
    const auto id = ctrl->Insert(ts.values, ts.label);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.ValueOrDie(), inserted);  // ids are dense while no deletes
    ++inserted;
    if (inserted == 5 || inserted == 8 || inserted == 25 || inserted == 60)
      ExpectFullParity(*ctrl, queries, "after " + std::to_string(inserted));
  }
  ExpectFullParity(*ctrl, queries, "all inserted");
  EXPECT_EQ(ctrl->dataset_size(), src.size());
}

// A scripted adversarial interleaving: inserts and deletes hitting every
// residence (memtable / sealed / main), manual seals and compactions at
// awkward moments, checked against the from-scratch baseline throughout.
TEST_P(IngestSweep, MixedMutationsMatchStatic) {
  const Dataset src = SourceData(23);
  const auto queries = SomeQueries(src);
  IngestOptions options;
  options.memtable_max = 0;       // manual seal
  options.compact_min_minors = 0;  // manual compact
  options.num_shards = 3;
  auto ctrl = Make(options);

  Rng rng(99);
  std::vector<uint64_t> alive;
  size_t next_src = 0;
  const auto insert_one = [&] {
    const TimeSeries& ts = src.series[next_src++ % src.size()];
    const auto id = ctrl->Insert(ts.values, ts.label);
    ASSERT_TRUE(id.ok());
    alive.push_back(id.ValueOrDie());
  };
  const auto delete_random = [&] {
    if (alive.empty()) return;
    const size_t pos = rng.UniformInt(alive.size());
    ASSERT_TRUE(ctrl->Delete(alive[pos]).ok());
    alive.erase(alive.begin() + pos);
  };

  for (int step = 0; step < 8; ++step) {
    for (int i = 0; i < 7; ++i) insert_one();
    delete_random();                 // memtable delete
    ASSERT_TRUE(ctrl->Seal().ok());
    delete_random();                 // sealed delete -> tombstone
    delete_random();
    if (step % 2 == 1) {
      ASSERT_TRUE(ctrl->Compact().ok());
    }
    ExpectFullParity(*ctrl, queries, "step " + std::to_string(step));
    EXPECT_EQ(ctrl->VisibleIds().size(), alive.size());
  }
  // Everything deleted: back to an empty visible set.
  while (!alive.empty()) delete_random();
  ASSERT_TRUE(ctrl->Seal().ok());
  ASSERT_TRUE(ctrl->Compact().ok());
  ExpectFullParity(*ctrl, queries, "drained");
  EXPECT_EQ(ctrl->dataset_size(), 0u);
}

// Batched queries must reproduce the serial answers at every thread count.
TEST_P(IngestSweep, BatchesMatchSerialAtEveryThreadCount) {
  const Dataset src = SourceData(29);
  const auto queries = SomeQueries(src);
  IngestOptions options;
  options.memtable_max = 10;
  options.compact_min_minors = 3;
  auto ctrl = Make(options);
  for (size_t i = 0; i < 47; ++i)
    ASSERT_TRUE(ctrl->Insert(src.series[i].values).ok());
  for (size_t i = 0; i < 47; i += 5) ASSERT_TRUE(ctrl->Delete(i).ok());

  std::vector<KnnResult> serial_knn, serial_range;
  for (const auto& q : queries) {
    serial_knn.push_back(ctrl->Knn(q, kK));
    serial_range.push_back(ctrl->RangeSearch(q, 9.0));
  }
  for (const size_t threads : kThreadCounts) {
    const auto knn = ctrl->KnnBatch(queries, kK, threads);
    const auto range = ctrl->RangeSearchBatch(queries, 9.0, threads);
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string label =
          "threads " + std::to_string(threads) + " q" + std::to_string(q);
      EXPECT_EQ(knn[q].neighbors, serial_knn[q].neighbors) << label;
      EXPECT_TRUE(knn[q].counters == serial_knn[q].counters) << label;
      EXPECT_EQ(range[q].neighbors, serial_range[q].neighbors) << label;
    }
  }
}

// A query's 2k nearest sealed series are deleted before compaction, so the
// tombstones outnumber k and hide the best candidates of both sealed
// generations. The query's one shared heap skips them before their lower
// bound, with no over-fetch, and its exact and degraded answers must still
// equal the static rebuild's. PAALM is left out: its filter is not a lower
// bound (its smoothed values are off-mean), so which candidates survive it
// depends on the order they are met in, and there is no exact answer to
// compare with.
TEST_P(IngestSweep, TombstonesHidingTheNearestSealedSeriesMatchStatic) {
  if (GetParam().method == Method::kPaalm)
    GTEST_SKIP() << "PAALM's filter distance is not a lower bound";
  const Dataset src = SourceData(43);
  IngestOptions options;
  options.memtable_max = 0;
  options.compact_min_minors = 0;
  options.num_shards = 2;
  auto ctrl = Make(options);
  const auto insert_range = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ASSERT_TRUE(ctrl->Insert(src.series[i].values, src.series[i].label).ok());
    }
  };
  insert_range(0, 50);  // main: ids 0..49
  ASSERT_TRUE(ctrl->Seal().ok());
  ASSERT_TRUE(ctrl->Compact().ok());
  insert_range(50, 80);  // one minor: ids 50..79
  ASSERT_TRUE(ctrl->Seal().ok());
  insert_range(80, 90);  // memtable: ids 80..89

  const std::vector<double>& q = src.series[19].values;
  std::vector<std::pair<double, uint64_t>> sealed;
  for (uint64_t id = 0; id < 80; ++id)
    sealed.emplace_back(EuclideanDistance(q, src.series[id].values), id);
  std::sort(sealed.begin(), sealed.end());
  for (size_t r = 0; r < 2 * kK; ++r)
    ASSERT_TRUE(ctrl->Delete(sealed[r].second).ok());
  ASSERT_EQ(ctrl->GetEpochStats().tombstones, 2 * kK);

  const std::vector<std::vector<double>> queries = {q, src.series[58].values,
                                                    src.series[84].values};
  ExpectFullParity(*ctrl, queries, "2k nearest hidden");
  const StaticBaseline b = BuildBaseline(*ctrl);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const KnnResult live = ctrl->KnnLowerBound(queries[qi], kK);
    EXPECT_EQ(live.neighbors,
              ToGlobal(b.index->KnnLowerBound(queries[qi], kK), b.ids))
        << "lower bound q" << qi;
    EXPECT_EQ(live.neighbors.size(), kK);
  }
}

// Tombstoned entries are skipped before their lower bound is computed:
// they count as pruned at node level, never as lower-bound evaluations.
TEST_P(IngestSweep, TombstonedEntriesCountAsPrunedAtNodeLevel) {
  const Dataset src = SourceData(47);
  IngestOptions options;
  options.memtable_max = 0;
  options.compact_min_minors = 0;
  auto ctrl = Make(options);
  for (size_t i = 0; i < 65; ++i) {
    ASSERT_TRUE(ctrl->Insert(src.series[i].values).ok());
    if (i == 39) {
      ASSERT_TRUE(ctrl->Seal().ok());
      ASSERT_TRUE(ctrl->Compact().ok());  // main: ids 0..39
    }
    if (i == 59) {
      ASSERT_TRUE(ctrl->Seal().ok());  // minor: ids 40..59
    }
  }
  for (uint64_t id = 0; id < 60; ++id) {
    ASSERT_TRUE(ctrl->Delete(id).ok());
  }
  ASSERT_EQ(ctrl->GetEpochStats().tombstones, 60u);

  const std::vector<double>& q = src.series[3].values;
  const KnnResult r = ctrl->Knn(q, kK);
  const SearchCounters& c = r.counters;
  EXPECT_LE(c.lb_evaluations, 5u);  // the memtable's five entries at most
  EXPECT_EQ(c.lb_evaluations + c.entries_pruned_node, 65u);
  EXPECT_EQ(c.lb_evaluations, c.exact_evaluations + c.entries_pruned_leaf);
  EXPECT_EQ(r.num_measured, c.exact_evaluations);
  ASSERT_EQ(r.neighbors.size(), kK);
  for (const auto& [dist, id] : r.neighbors) EXPECT_GE(id, 60u);

  const KnnResult lb = ctrl->KnnLowerBound(q, kK);
  EXPECT_EQ(lb.counters.lb_evaluations, 5u);
  EXPECT_EQ(lb.counters.entries_pruned_node, 60u);
  ExpectFullParity(*ctrl, {q}, "all sealed entries hidden");
}

INSTANTIATE_TEST_SUITE_P(
    MethodsTimesTrees, IngestSweep,
    ::testing::ValuesIn([] {
      std::vector<IngestCase> cases;
      for (const Method method : AllMethods())
        for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree})
          cases.push_back({method, kind});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<IngestCase>& info) {
      return MethodName(info.param.method) +
             (info.param.kind == IndexKind::kRTree ? "_RTree" : "_DbchTree");
    });

// ---------------------------------------------------------------------------
// Visibility semantics (single representative method; the mechanics are
// method-independent).

IngestOptions ManualOptions() {
  IngestOptions options;
  options.memtable_max = 0;
  options.compact_min_minors = 0;
  return options;
}

std::unique_ptr<IngestController> SaplaController(
    const IngestOptions& options, size_t length = 64) {
  return std::make_unique<IngestController>(
      Method::kSapla, kBudget, IndexKind::kRTree, length, options);
}

TEST(IngestVisibility, LogicalTtlExpiresDeterministically) {
  const Dataset src = SourceData(31);
  auto ctrl = SaplaController(ManualOptions());
  // seq 0: ttl 3 -> expiry at seq 3: survives its insert plus two more
  // mutations, gone at the third.
  const auto ttl_id = ctrl->Insert(src.series[0].values, -1, 3);
  ASSERT_TRUE(ttl_id.ok());
  EXPECT_EQ(ctrl->dataset_size(), 1u);
  ASSERT_TRUE(ctrl->Insert(src.series[1].values).ok());  // seq -> 2
  EXPECT_EQ(ctrl->dataset_size(), 2u);
  ASSERT_TRUE(ctrl->Insert(src.series[2].values).ok());  // seq -> 3, still ok
  EXPECT_EQ(ctrl->dataset_size(), 3u);
  ASSERT_TRUE(ctrl->Insert(src.series[3].values).ok());  // seq -> 4: expired
  EXPECT_EQ(ctrl->dataset_size(), 3u);
  const auto vis = ctrl->VisibleIds();
  EXPECT_EQ(vis, (std::vector<uint64_t>{1, 2, 3}));

  // An expired entry cannot be deleted (it is not visible)...
  EXPECT_FALSE(ctrl->Delete(ttl_id.ValueOrDie()).ok());
  // ...and stays invisible through seal + compaction (physical drop).
  ASSERT_TRUE(ctrl->Seal().ok());
  ASSERT_TRUE(ctrl->Compact().ok());
  EXPECT_EQ(ctrl->VisibleIds(), vis);
  ExpectFullParity(*ctrl, SomeQueries(src), "post-expiry");
}

TEST(IngestVisibility, ExpiredSealedEntriesAreTombstonedUntilCompaction) {
  const Dataset src = SourceData(32);
  auto ctrl = SaplaController(ManualOptions());
  ASSERT_TRUE(ctrl->Insert(src.series[0].values, -1, 2).ok());
  ASSERT_TRUE(ctrl->Insert(src.series[1].values).ok());
  ASSERT_TRUE(ctrl->Seal().ok());  // seals both; seal is not a mutation
  EXPECT_EQ(ctrl->dataset_size(), 2u);
  ASSERT_TRUE(ctrl->Insert(src.series[2].values).ok());  // seq 3: id 0 gone
  EXPECT_EQ(ctrl->GetEpochStats().tombstones, 1u);
  EXPECT_EQ(ctrl->dataset_size(), 2u);
  ASSERT_TRUE(ctrl->Compact().ok());
  EXPECT_EQ(ctrl->GetEpochStats().tombstones, 0u);
  EXPECT_EQ(ctrl->dataset_size(), 2u);
  ExpectFullParity(*ctrl, SomeQueries(src), "expired-sealed");
}

TEST(IngestVisibility, DeleteSemantics) {
  const Dataset src = SourceData(33);
  auto ctrl = SaplaController(ManualOptions());
  EXPECT_FALSE(ctrl->Delete(0).ok());  // never inserted
  ASSERT_TRUE(ctrl->Insert(src.series[0].values).ok());
  ASSERT_TRUE(ctrl->Delete(0).ok());
  EXPECT_FALSE(ctrl->Delete(0).ok());  // double delete
  EXPECT_EQ(ctrl->dataset_size(), 0u);
  // Ids are never reused after a delete.
  const auto id = ctrl->Insert(src.series[1].values);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.ValueOrDie(), 1u);
}

TEST(IngestVisibility, RejectsMalformedInserts) {
  const Dataset src = SourceData(34);
  auto ctrl = SaplaController(ManualOptions());
  EXPECT_FALSE(ctrl->Insert({1.0, 2.0}).ok());  // wrong length
  std::vector<double> bad = src.series[0].values;
  bad[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ctrl->Insert(bad).ok());
  bad[5] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ctrl->Insert(bad).ok());
  EXPECT_EQ(ctrl->dataset_size(), 0u);
}

TEST(IngestVisibility, AdmissionControlRefusesWhenMinorsPileUp) {
  const Dataset src = SourceData(35);
  IngestOptions options = ManualOptions();
  options.memtable_max = 2;
  options.max_minors = 2;
  auto ctrl = SaplaController(options);
  size_t accepted = 0, refused = 0;
  for (size_t i = 0; i < 12; ++i) {
    const auto id = ctrl->Insert(src.series[i].values);
    if (id.ok())
      ++accepted;
    else
      ++refused;
  }
  EXPECT_GT(refused, 0u);
  EXPECT_EQ(ctrl->metrics().rejected_overloaded.load(), refused);
  // Compaction drains the minors; inserts flow again.
  ASSERT_TRUE(ctrl->Compact().ok());
  EXPECT_TRUE(ctrl->Insert(src.series[0].values).ok());
  EXPECT_EQ(ctrl->dataset_size(), accepted + 1);
}

TEST(IngestVisibility, EpochStatsAndCorpusIdTrackLifecycle) {
  const Dataset src = SourceData(36);
  auto ctrl = SaplaController(ManualOptions());
  const uint64_t id0 = ctrl->corpus_id();
  ASSERT_TRUE(ctrl->Insert(src.series[0].values).ok());
  const uint64_t id1 = ctrl->corpus_id();
  EXPECT_NE(id1, id0);

  auto stats = ctrl->GetEpochStats();
  EXPECT_EQ(stats.memtable_entries, 1u);
  EXPECT_EQ(stats.minor_generations, 0u);
  EXPECT_EQ(stats.main_entries, 0u);

  ASSERT_TRUE(ctrl->Seal().ok());
  const uint64_t id2 = ctrl->corpus_id();
  EXPECT_NE(id2, id1);  // a seal republishes even though nothing mutated
  stats = ctrl->GetEpochStats();
  EXPECT_EQ(stats.memtable_entries, 0u);
  EXPECT_EQ(stats.minor_generations, 1u);

  ASSERT_TRUE(ctrl->Compact().ok());
  EXPECT_NE(ctrl->corpus_id(), id2);
  stats = ctrl->GetEpochStats();
  EXPECT_EQ(stats.minor_generations, 0u);
  EXPECT_EQ(stats.main_entries, 1u);
  EXPECT_EQ(stats.visible, 1u);
}

TEST(IngestVisibility, IngestGaugesTrackTheEpoch) {
  const Dataset src = SourceData(37);
  IngestOptions options = ManualOptions();
  auto ctrl = SaplaController(options);
  for (size_t i = 0; i < 6; ++i)
    ASSERT_TRUE(ctrl->Insert(src.series[i].values).ok());
  ASSERT_TRUE(ctrl->Seal().ok());
  ASSERT_TRUE(ctrl->Delete(2).ok());

  const IngestMetricsSnapshot snap = SnapshotIngestMetrics(ctrl->metrics());
  EXPECT_EQ(snap.inserts, 6u);
  EXPECT_EQ(snap.deletes, 1u);
  EXPECT_EQ(snap.seals, 1u);
  EXPECT_EQ(snap.memtable_size, 0u);
  EXPECT_EQ(snap.sealed_minors, 1u);
  EXPECT_EQ(snap.tombstones, 1u);
  EXPECT_EQ(snap.visible_series, 5u);

  const std::string prom = IngestMetricsToPrometheus(ctrl->metrics());
  EXPECT_NE(prom.find("sapla_ingest_inserts_total 6"), std::string::npos);
  EXPECT_NE(prom.find("sapla_ingest_visible_series 5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serving integration: the controller is a SearchIndex, so QueryService
// fronts it unchanged, and its result cache can never serve across a
// mutation because every publication changes corpus_id().

TEST(IngestServe, CacheNeverServesAcrossAMutation) {
  const Dataset src = SourceData(41);
  auto ctrl = SaplaController(ManualOptions());
  for (size_t i = 0; i < 10; ++i)
    ASSERT_TRUE(ctrl->Insert(src.series[i].values).ok());

  ServeOptions serve;
  serve.cache_capacity = 64;
  serve.max_batch = 1;
  QueryService service(*ctrl, serve);
  const std::vector<double>& q = src.series[3].values;

  const ServeResponse first = service.Knn(q, kK);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  const ServeResponse warm = service.Knn(q, kK);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);

  ASSERT_TRUE(ctrl->Insert(src.series[10].values).ok());
  const ServeResponse after = service.Knn(q, kK);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit) << "served a pre-mutation cache entry";
  service.Stop();
}

// ---------------------------------------------------------------------------
// Concurrency: readers pinning epochs while a writer inserts, deletes,
// seals and compacts. Under TSan this is the data-race canary; under any
// build each reader must only ever observe internally consistent answers
// drawn from SOME published epoch (sorted neighbors, sane sizes, exact
// non-approximate answers).

TEST(IngestConcurrency, ReadersStayConsistentDuringSealsAndCompactions) {
  const Dataset src = SourceData(42, 48, 120);
  IngestOptions options;
  options.memtable_max = 6;
  options.compact_min_minors = 2;
  options.num_shards = 2;
  auto ctrl = SaplaController(options, 48);
  for (size_t i = 0; i < 20; ++i)
    ASSERT_TRUE(ctrl->Insert(src.series[i].values).ok());

  const auto queries = SomeQueries(src);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<int> failures(3, 0);
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& q = queries[(t + i++) % queries.size()];
        const KnnResult r = ctrl->Knn(q, kK);
        if (r.approximate || r.neighbors.size() > kK ||
            !std::is_sorted(r.neighbors.begin(), r.neighbors.end()))
          ++failures[t];
        const KnnResult range = ctrl->RangeSearch(q, 9.0);
        if (!std::is_sorted(range.neighbors.begin(), range.neighbors.end()))
          ++failures[t];
      }
    });
  }

  // Writer: a full lifecycle churn racing the readers.
  for (size_t i = 20; i < 120; ++i) {
    ASSERT_TRUE(ctrl->Insert(src.series[i].values).ok());
    if (i % 7 == 0) {
      ASSERT_TRUE(ctrl->Delete(i - 10).ok());
    }
    if (i % 13 == 0) {
      ASSERT_TRUE(ctrl->Seal().ok());
    }
    if (i % 29 == 0) {
      ASSERT_TRUE(ctrl->Compact().ok());
    }
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  for (size_t t = 0; t < failures.size(); ++t)
    EXPECT_EQ(failures[t], 0) << "reader " << t;

  // Quiesced: full parity over the surviving set.
  ExpectFullParity(*ctrl, queries, "post-churn");
}

}  // namespace
}  // namespace sapla
