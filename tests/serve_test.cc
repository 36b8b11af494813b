// Tests for the embedded query-serving subsystem (serve/service.h).
//
// The load-bearing contract is determinism: answers served through the
// admission queue + micro-batching scheduler must be bit-identical to
// per-request serial execution — same neighbor pairs, same num_measured —
// for every Method x IndexKind, at 1/2/8 execution threads and at
// max_batch 1 (one-at-a-time), 4 and 32, and must also match a direct
// KnnBatch call. On top of that: backpressure (kOverloaded on a full
// queue, resolved immediately), deadlines (kDeadlineExceeded, optionally
// with an approximate lower-bound answer), the result cache (hits,
// accounting, invalidation), shutdown semantics, and the inline path
// blocking calls take on an idle service (same answers and counters as the
// index, no queue wait, only while the blocking calls in progress fit in
// num_threads, waited for by Stop).

#include "serve/service.h"

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ts/synthetic_archive.h"
#include "util/fault.h"

namespace sapla {
namespace {

Dataset SmallDataset(size_t id = 12, size_t n = 96, size_t count = 50) {
  SyntheticOptions opt;
  opt.length = n;
  opt.num_series = count;
  return MakeSyntheticDataset(id, opt);
}

std::vector<std::vector<double>> SomeQueries(const Dataset& ds) {
  std::vector<std::vector<double>> queries;
  for (const size_t qi : {0u, 7u, 19u, 33u, 41u, 48u})
    queries.push_back(ds.series[qi].values);
  return queries;
}

void ExpectSameCounters(const SearchCounters& expected,
                        const SearchCounters& actual,
                        const std::string& label) {
  EXPECT_EQ(expected.nodes_visited_internal, actual.nodes_visited_internal)
      << label;
  EXPECT_EQ(expected.nodes_visited_leaf, actual.nodes_visited_leaf) << label;
  for (size_t l = 0; l < SearchCounters::kMaxLevels; ++l)
    EXPECT_EQ(expected.nodes_visited_by_level[l],
              actual.nodes_visited_by_level[l])
        << label << " level " << l;
  EXPECT_EQ(expected.nodes_pruned, actual.nodes_pruned) << label;
  EXPECT_EQ(expected.lb_evaluations, actual.lb_evaluations) << label;
  EXPECT_EQ(expected.exact_evaluations, actual.exact_evaluations) << label;
  EXPECT_EQ(expected.entries_pruned_leaf, actual.entries_pruned_leaf)
      << label;
  EXPECT_EQ(expected.entries_pruned_node, actual.entries_pruned_node)
      << label;
  EXPECT_EQ(expected.lb_tightness_sum, actual.lb_tightness_sum) << label;
  EXPECT_EQ(expected.lb_tightness_count, actual.lb_tightness_count) << label;
  EXPECT_EQ(expected.cascade_stage, actual.cascade_stage) << label;
}

void ExpectSameResult(const KnnResult& expected, const KnnResult& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size()) << label;
  for (size_t i = 0; i < expected.neighbors.size(); ++i) {
    EXPECT_EQ(expected.neighbors[i].second, actual.neighbors[i].second)
        << label << " rank " << i;
    EXPECT_EQ(expected.neighbors[i].first, actual.neighbors[i].first)
        << label << " rank " << i;  // bit-identical distances
  }
  EXPECT_EQ(expected.num_measured, actual.num_measured) << label;
}

struct ServeCase {
  Method method;
  IndexKind kind;
};

class ServeDeterminism : public ::testing::TestWithParam<ServeCase> {};

TEST_P(ServeDeterminism, MicroBatchedAnswersMatchSerialAndDirectBatch) {
  const auto [method, kind] = GetParam();
  const Dataset ds = SmallDataset();
  SimilarityIndex index(method, 12, kind);
  ASSERT_TRUE(index.Build(ds).ok()) << MethodName(method);

  const size_t k = 5;
  const double radius = 8.0;
  const std::vector<std::vector<double>> queries = SomeQueries(ds);

  // Ground truth: per-request serial execution, and the direct batch APIs
  // (whose own equivalence batch_query_test already proves).
  std::vector<KnnResult> serial_knn, serial_range;
  for (const std::vector<double>& q : queries) {
    serial_knn.push_back(index.Knn(q, k));
    serial_range.push_back(index.RangeSearch(q, radius));
  }
  const std::vector<KnnResult> direct_knn = index.KnnBatch(queries, k);

  for (const size_t threads : {1u, 2u, 8u}) {
    for (const size_t max_batch : {1u, 4u, 32u}) {
      ServeOptions opt;
      opt.queue_capacity = 256;
      opt.max_batch = max_batch;
      opt.max_delay_us = 100;
      opt.num_threads = threads;
      opt.cache_capacity = 0;  // no short-circuiting in this test
      QueryService service(index, opt);

      std::vector<std::future<ServeResponse>> knn_futures, range_futures;
      for (const std::vector<double>& q : queries) {
        knn_futures.push_back(service.SubmitKnn(q, k));
        range_futures.push_back(service.SubmitRange(q, radius));
      }
      const std::string label = MethodName(method) + "/" +
                                IndexKindName(kind) + " threads=" +
                                std::to_string(threads) + " max_batch=" +
                                std::to_string(max_batch);
      for (size_t i = 0; i < queries.size(); ++i) {
        const ServeResponse knn = knn_futures[i].get();
        ASSERT_TRUE(knn.status.ok()) << label << ": " << knn.status.ToString();
        EXPECT_FALSE(knn.approximate);
        ExpectSameResult(serial_knn[i], knn.result,
                         label + " knn q" + std::to_string(i));
        ExpectSameResult(direct_knn[i], knn.result,
                         label + " direct q" + std::to_string(i));

        const ServeResponse range = range_futures[i].get();
        ASSERT_TRUE(range.status.ok())
            << label << ": " << range.status.ToString();
        ExpectSameResult(serial_range[i], range.result,
                         label + " range q" + std::to_string(i));
      }
      const ServeMetricsSnapshot snap = service.MetricsSnapshot();
      EXPECT_EQ(snap.admitted, queries.size() * 2) << label;
      EXPECT_EQ(snap.completed_ok, queries.size() * 2) << label;
      EXPECT_EQ(snap.rejected_overloaded, 0u) << label;
      EXPECT_EQ(snap.deadline_exceeded, 0u) << label;
    }
  }
}

std::vector<ServeCase> AllServeCases() {
  std::vector<ServeCase> cases;
  for (const Method method : AllMethods())
    for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree})
      cases.push_back({method, kind});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    MethodsTimesTrees, ServeDeterminism, ::testing::ValuesIn(AllServeCases()),
    [](const ::testing::TestParamInfo<ServeCase>& info) {
      return MethodName(info.param.method) +
             (info.param.kind == IndexKind::kRTree ? "_RTree" : "_DbchTree");
    });

class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = SmallDataset(21);
    index_ = std::make_unique<SimilarityIndex>(Method::kSapla, 12,
                                               IndexKind::kDbchTree);
    ASSERT_TRUE(index_->Build(ds_).ok());
  }

  Dataset ds_;
  std::unique_ptr<SimilarityIndex> index_;
};

TEST_F(ServeFixture, FullQueueRejectsWithOverloadedImmediately) {
  ServeOptions opt;
  opt.queue_capacity = 4;
  // Neither flush trigger can fire while we submit: the size trigger is
  // out of reach and the delay window is far longer than the loop below.
  opt.max_batch = 1 << 20;
  opt.max_delay_us = 200'000;
  QueryService service(*index_, opt);

  const std::vector<double>& q = ds_.series[0].values;
  std::vector<std::future<ServeResponse>> futures;
  size_t rejected_now = 0;
  for (size_t i = 0; i < 40; ++i) {
    futures.push_back(service.SubmitKnn(q, 3));
    // A rejection resolves the future before Submit returns.
    if (futures.back().wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready)
      ++rejected_now;
  }
  // The queue holds at most 4; everything else must have been rejected
  // promptly, not parked.
  EXPECT_GE(rejected_now, 40u - opt.queue_capacity);

  size_t ok = 0, overloaded = 0;
  for (auto& f : futures) {
    const ServeResponse r = f.get();
    if (r.status.ok())
      ++ok;
    else if (r.status.code() == StatusCode::kOverloaded)
      ++overloaded;
  }
  EXPECT_EQ(ok + overloaded, 40u);
  EXPECT_LE(ok, opt.queue_capacity);
  EXPECT_GE(overloaded, 40u - opt.queue_capacity);

  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.admitted, ok);
  EXPECT_EQ(snap.rejected_overloaded, overloaded);
}

TEST_F(ServeFixture, ExpiredRequestsReturnDeadlineExceeded) {
  ServeOptions opt;
  opt.queue_capacity = 64;
  opt.max_batch = 1 << 20;     // only the 50ms window flushes
  opt.max_delay_us = 50'000;
  QueryService service(*index_, opt);

  std::vector<std::future<ServeResponse>> futures;
  for (size_t i = 0; i < 5; ++i)
    futures.push_back(
        service.SubmitKnn(ds_.series[i].values, 3, /*deadline_us=*/1000));
  for (auto& f : futures) {
    const ServeResponse r = f.get();
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << r.status.ToString();
    EXPECT_TRUE(r.result.neighbors.empty());
    EXPECT_FALSE(r.approximate);
  }
  EXPECT_EQ(service.MetricsSnapshot().deadline_exceeded, 5u);
}

TEST_F(ServeFixture, DegradedAnswersComeFromLowerBoundsOnly) {
  ServeOptions opt;
  opt.queue_capacity = 64;
  opt.max_batch = 1 << 20;
  opt.max_delay_us = 50'000;
  opt.degraded_answers = true;
  QueryService service(*index_, opt);

  // SubmitKnn, not the blocking Knn: on an idle service Knn would run
  // inline at once instead of waiting out the 50 ms window.
  const std::vector<double>& q = ds_.series[9].values;
  const ServeResponse r = service.SubmitKnn(q, 4, /*deadline_us=*/1000).get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.approximate);
  EXPECT_EQ(r.result.num_measured, 0u);  // no raw series touched
  ExpectSameResult(index_->KnnLowerBound(q, 4), r.result, "degraded knn");
  EXPECT_EQ(service.MetricsSnapshot().degraded, 1u);
}

TEST_F(ServeFixture, CacheHitsRepeatedQueriesAndInvalidates) {
  ServeOptions opt;
  opt.max_batch = 1;  // flush each request immediately
  opt.max_delay_us = 0;
  opt.cache_capacity = 64;
  opt.cache_shards = 4;
  QueryService service(*index_, opt);

  const std::vector<double>& q = ds_.series[3].values;
  const ServeResponse first = service.Knn(q, 5);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);

  const ServeResponse second = service.Knn(q, 5);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  ExpectSameResult(first.result, second.result, "cached knn");

  // A different k is a different key.
  EXPECT_FALSE(service.Knn(q, 6).cache_hit);
  // Range and kNN do not alias.
  EXPECT_FALSE(service.Range(q, 8.0).cache_hit);
  EXPECT_TRUE(service.Range(q, 8.0).cache_hit);

  ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.cache_hits, 2u);
  EXPECT_EQ(snap.cache_misses, 3u);

  service.InvalidateCache();
  EXPECT_FALSE(service.Knn(q, 5).cache_hit);
}

TEST_F(ServeFixture, StopDrainsPendingAndRejectsNewRequests) {
  ServeOptions opt;
  opt.queue_capacity = 64;
  opt.max_batch = 1 << 20;
  opt.max_delay_us = 500'000;  // pending requests sit until Stop drains them
  QueryService service(*index_, opt);

  std::vector<std::future<ServeResponse>> futures;
  for (size_t i = 0; i < 3; ++i)
    futures.push_back(service.SubmitKnn(ds_.series[i].values, 3));
  service.Stop();
  for (size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse r = futures[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ExpectSameResult(index_->Knn(ds_.series[i].values, 3), r.result,
                     "drained q" + std::to_string(i));
  }
  const ServeResponse after = service.Knn(ds_.series[0].values, 3);
  EXPECT_EQ(after.status.code(), StatusCode::kUnavailable);
}

TEST_F(ServeFixture, IdleBlockingCallsRunInlineAndMatchTheIndex) {
  ServeOptions opt;
  opt.cache_capacity = 0;
  QueryService service(*index_, opt);

  const std::vector<size_t> queries = {0, 9, 27, 44};
  for (const size_t qi : queries) {
    const std::vector<double>& q = ds_.series[qi].values;
    const std::string label = "q" + std::to_string(qi);

    const ServeResponse knn = service.Knn(q, 5);
    ASSERT_TRUE(knn.status.ok()) << knn.status.ToString();
    EXPECT_FALSE(knn.approximate);
    EXPECT_EQ(knn.queue_us, 0u) << label;
    const KnnResult direct_knn = index_->Knn(q, 5);
    ExpectSameResult(direct_knn, knn.result, label + " knn");
    ExpectSameCounters(direct_knn.counters, knn.result.counters,
                       label + " knn counters");

    const ServeResponse range = service.Range(q, 8.0);
    ASSERT_TRUE(range.status.ok()) << range.status.ToString();
    EXPECT_EQ(range.queue_us, 0u) << label;
    const KnnResult direct_range = index_->RangeSearch(q, 8.0);
    ExpectSameResult(direct_range, range.result, label + " range");
    ExpectSameCounters(direct_range.counters, range.result.counters,
                       label + " range counters");
  }

  // Every call ran inline, and each still records as a flushed batch of
  // one with no queue wait.
  const size_t calls = 2 * queries.size();
  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.executed_inline, calls);
  EXPECT_EQ(snap.batches_flushed, calls);
  EXPECT_EQ(snap.admitted, calls);
  EXPECT_EQ(snap.completed_ok, calls);
  EXPECT_EQ(snap.batch_size.max, 1u);
  EXPECT_EQ(snap.queue_wait_us.max, 0u);
  EXPECT_EQ(snap.queue_depth.count, 0u);  // nothing was ever queued
}

TEST_F(ServeFixture, WatchdogIgnoresWorkArrivingAtAnIdleScheduler) {
  // An idle scheduler blocks in PopBatch, so its heartbeat is stale
  // whenever work arrives, and blocking calls that run inline keep it idle
  // for long stretches. A request that has just queued has not been kept
  // waiting, so it must not read as a stall.
  ServeOptions opt;
  opt.cache_capacity = 0;
  opt.max_batch = 1 << 20;
  opt.max_delay_us = 10'000;  // the request sits queued for 10 ms
  opt.watchdog_interval_us = 1'000;
  opt.stall_degraded_us = 30'000;
  QueryService service(*index_, opt);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  auto queued = service.SubmitKnn(ds_.series[2].values, 3);
  while (queued.wait_for(std::chrono::microseconds(200)) !=
         std::future_status::ready)
    EXPECT_EQ(service.health(), ServeHealth::kHealthy);
  ASSERT_TRUE(queued.get().status.ok());
  EXPECT_EQ(service.MetricsSnapshot().watchdog_stalls, 0u);
}

TEST_F(ServeFixture, WrongQueryLengthIsInvalidArgument) {
  QueryService service(*index_);
  const ServeResponse r = service.Knn(std::vector<double>(7, 0.0), 3);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeFixture, ConcurrentClientsGetSerialAnswers) {
  ServeOptions opt;
  opt.max_batch = 16;
  opt.max_delay_us = 200;
  opt.cache_capacity = 128;
  QueryService service(*index_, opt);

  constexpr size_t kClients = 6;
  constexpr size_t kPerClient = 30;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const size_t qi = (c * 13 + i * 7) % ds_.size();
        const ServeResponse r = service.Knn(ds_.series[qi].values, 4);
        if (!r.status.ok()) {
          failures[c] = r.status.ToString();
          return;
        }
        const KnnResult expected = index_->Knn(ds_.series[qi].values, 4);
        if (expected.neighbors != r.result.neighbors ||
            expected.num_measured != r.result.num_measured) {
          failures[c] = "mismatch at client " + std::to_string(c) +
                        " query " + std::to_string(qi);
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.completed_ok, kClients * kPerClient);
  EXPECT_GT(snap.cache_hits, 0u);  // clients repeat query indices
}

TEST_F(ServeFixture, DeadlineRacingTheFlushIsAlwaysExactOrExpired) {
  // Deadlines chosen to land right on the flush window: whether each
  // request wins or loses its race is timing-dependent, but the outcome
  // space is not — every response is either a bit-exact OK answer or a
  // clean kDeadlineExceeded. Nothing in between, nothing torn.
  ServeOptions opt;
  opt.queue_capacity = 256;
  opt.max_batch = 4;
  opt.max_delay_us = 2'000;
  opt.cache_capacity = 0;
  opt.degraded_answers = false;
  QueryService service(*index_, opt);

  constexpr size_t kRequests = 200;
  std::vector<std::future<ServeResponse>> futures;
  std::vector<size_t> query_of;
  for (size_t i = 0; i < kRequests; ++i) {
    const size_t qi = (i * 17) % ds_.size();
    query_of.push_back(qi);
    futures.push_back(
        service.SubmitKnn(ds_.series[qi].values, 3, /*deadline_us=*/2'000));
  }

  size_t ok = 0, expired = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    const ServeResponse r = futures[i].get();
    if (r.status.ok()) {
      ++ok;
      EXPECT_FALSE(r.approximate);
      ExpectSameResult(index_->Knn(ds_.series[query_of[i]].values, 3),
                       r.result, "raced q" + std::to_string(i));
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
          << r.status.ToString();
      EXPECT_TRUE(r.result.neighbors.empty());
      ++expired;
    }
  }
  EXPECT_EQ(ok + expired, kRequests);
  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.completed_ok, ok);
  EXPECT_EQ(snap.deadline_exceeded, expired);
}

// ---- Resource governance (util/resource_budget.h, docs/ROBUSTNESS.md).

TEST_F(ServeFixture, BudgetMetersCacheAndQueueAndReleasesOnDestruction) {
  auto budget = ResourceBudget::MakeRoot("process", 0);  // pure accounting
  {
    ServeOptions opt;
    opt.max_batch = 1;
    opt.max_delay_us = 0;
    opt.cache_capacity = 64;
    opt.memory_budget = budget;
    QueryService service(*index_, opt);

    for (size_t i = 0; i < 8; ++i)
      ASSERT_TRUE(service.Knn(ds_.series[i].values, 4).status.ok());
    // Cached results are charged to the service's attribution child.
    EXPECT_GT(budget->used(), 0u);
    bool saw_cache = false, saw_queue = false;
    for (const auto& snap : budget->SnapshotTree()) {
      if (snap.name == "serve/cache") {
        saw_cache = true;
        EXPECT_GT(snap.used, 0u);
      }
      if (snap.name == "serve/queue") saw_queue = true;
    }
    EXPECT_TRUE(saw_cache);
    EXPECT_TRUE(saw_queue);
  }
  // The service died: every reservation must have been returned.
  EXPECT_EQ(budget->used(), 0u);
}

TEST_F(ServeFixture, SoftPressureShrinksCacheOncePerEpisode) {
  constexpr size_t kCapacity = 1u << 20;
  auto budget = ResourceBudget::MakeRoot("process", kCapacity);
  ServeOptions opt;
  opt.max_batch = 1;
  opt.max_delay_us = 0;
  opt.cache_capacity = 64;
  opt.memory_budget = budget;
  QueryService service(*index_, opt);

  // An external consumer pushes the root past the soft watermark (0.85 *
  // capacity) but keeps it below hard.
  budget->ForceReserve(900 * 1024);
  ASSERT_EQ(budget->pressure(), BudgetPressure::kSoft);

  const ServeResponse r1 = service.Knn(ds_.series[0].values, 4);
  ASSERT_TRUE(r1.status.ok());
  EXPECT_FALSE(r1.approximate);  // soft never degrades answers
  EXPECT_EQ(service.health(), ServeHealth::kHealthy);
  EXPECT_EQ(service.MetricsSnapshot().budget_cache_shrinks, 1u);

  // Still under pressure: the episode's shrink already happened, a budget
  // hovering at the watermark must not thrash the cache.
  ASSERT_TRUE(service.Knn(ds_.series[1].values, 4).status.ok());
  EXPECT_EQ(service.MetricsSnapshot().budget_cache_shrinks, 1u);

  // Pressure lifts (one request observes it and re-arms), then returns:
  // the next episode gets its own shrink.
  budget->Release(900 * 1024);
  ASSERT_TRUE(service.Knn(ds_.series[2].values, 4).status.ok());
  budget->ForceReserve(900 * 1024);
  ASSERT_TRUE(service.Knn(ds_.series[3].values, 4).status.ok());
  EXPECT_EQ(service.MetricsSnapshot().budget_cache_shrinks, 2u);
  budget->Release(900 * 1024);
}

TEST_F(ServeFixture, HardPressureDegradesReadsAndRecovers) {
  constexpr size_t kCapacity = 1u << 20;
  auto budget = ResourceBudget::MakeRoot("process", kCapacity);
  ServeOptions opt;
  opt.max_batch = 1;
  opt.max_delay_us = 0;
  opt.cache_capacity = 0;
  opt.degraded_answers = true;
  opt.memory_budget = budget;
  QueryService service(*index_, opt);

  budget->ForceReserve(kCapacity);  // hard saturation
  ASSERT_EQ(budget->pressure(), BudgetPressure::kHard);

  const std::vector<double>& q = ds_.series[5].values;
  const KnnResult lb = index_->KnnLowerBound(q, 4);
  size_t degraded_ok = 0, bounced = 0;
  for (int i = 0; i < 9; ++i) {
    const ServeResponse r = service.Knn(q, 4);
    EXPECT_EQ(service.health(), ServeHealth::kDegraded);
    if (r.status.ok()) {
      // Diverted read: lower-bound-only, bit-exact per KnnLowerBound.
      EXPECT_TRUE(r.approximate);
      ExpectSameResult(lb, r.result, "pressure degraded " + std::to_string(i));
      ++degraded_ok;
    } else {
      // Canary probes still try the pipeline, where the saturated budget
      // refuses the queue reservation: ordinary overload, never a crash.
      EXPECT_EQ(r.status.code(), StatusCode::kOverloaded)
          << r.status.ToString();
      ++bounced;
    }
  }
  // Every eighth ladder request is a canary (the first and the ninth).
  EXPECT_EQ(degraded_ok, 7u);
  EXPECT_EQ(bounced, 2u);
  const ServeMetricsSnapshot under = service.MetricsSnapshot();
  EXPECT_EQ(under.budget_degraded, degraded_ok);
  EXPECT_EQ(under.rejected_overloaded, bounced);

  // Pressure lifts: the next request re-reads the budget, health recovers,
  // and answers are exact again — no restart, no manual reset.
  budget->Release(kCapacity);
  const ServeResponse after = service.Knn(q, 4);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_FALSE(after.approximate);
  ExpectSameResult(index_->Knn(q, 4), after.result, "recovered exact");
  EXPECT_EQ(service.health(), ServeHealth::kHealthy);
}

TEST_F(ServeFixture, AdmissionDelayShedsLowPriorityFirst) {
  ServeOptions opt;
  opt.queue_capacity = 64;
  // Nothing flushes during the test: the size trigger is out of reach and
  // the delay window far exceeds it, so the first request ages in place.
  opt.max_batch = 1 << 20;
  opt.max_delay_us = 300'000;
  opt.admission_target_delay_us = 1'000;
  QueryService service(*index_, opt);

  auto first = service.SubmitKnn(ds_.series[0].values, 3);  // queue was empty
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The oldest queued request has now waited ~20x the target: low sheds at
  // 1x, normal at 2x, high never sheds early.
  auto low = service.SubmitKnn(ds_.series[1].values, 3, 0, ServePriority::kLow);
  auto normal = service.SubmitKnn(ds_.series[2].values, 3);
  auto high =
      service.SubmitKnn(ds_.series[3].values, 3, 0, ServePriority::kHigh);

  ASSERT_EQ(low.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(normal.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(high.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  const ServeResponse low_r = low.get();
  EXPECT_EQ(low_r.status.code(), StatusCode::kOverloaded);
  EXPECT_NE(low_r.status.message().find("shedding low"), std::string::npos)
      << low_r.status.message();
  const ServeResponse normal_r = normal.get();
  EXPECT_EQ(normal_r.status.code(), StatusCode::kOverloaded);
  EXPECT_NE(normal_r.status.message().find("shedding normal"),
            std::string::npos)
      << normal_r.status.message();
  EXPECT_EQ(service.MetricsSnapshot().shed_early, 2u);

  // Stop drains the admitted requests; shedding never corrupted them.
  service.Stop();
  ASSERT_TRUE(first.get().status.ok());
  const ServeResponse high_r = high.get();
  ASSERT_TRUE(high_r.status.ok()) << high_r.status.ToString();
  ExpectSameResult(index_->Knn(ds_.series[3].values, 3), high_r.result,
                   "high priority drained");
}

#ifndef SAPLA_FAULT_DISABLED

// Health-ladder tests drive the service through injected flush failures
// (util/fault.h point "serve/flush") — deterministic because probability 1
// with a trigger cap fails exactly the first N flushes.
class ServeHealthLadder : public ServeFixture {
 protected:
  void TearDown() override { fault::Reset(); }

  // One flush per request so failure counting is exact; cache off so the
  // ladder sees every request.
  ServeOptions LadderOptions() {
    ServeOptions opt;
    opt.queue_capacity = 64;
    opt.max_batch = 1;
    opt.max_delay_us = 0;
    opt.cache_capacity = 0;
    opt.degraded_answers = true;
    return opt;
  }

  void FailNextFlushes(uint64_t count) {
    fault::Reset();
    fault::Enable(/*seed=*/11);
    fault::PointConfig cfg;
    cfg.probability = 1.0;
    cfg.max_triggers = count;
    cfg.code = StatusCode::kUnavailable;
    fault::Configure("serve/flush", cfg);
  }
};

TEST_F(ServeHealthLadder, FlushFailuresDegradeThenCanaryRecovers) {
  ServeOptions opt = LadderOptions();
  opt.flush_failures_degraded = 2;
  opt.flush_failures_unhealthy = 0;  // never unhealthy in this test
  QueryService service(*index_, opt);
  const std::vector<double>& q = ds_.series[5].values;

  // Exactly the first three flushes fail: two to cross the degraded
  // threshold, one more for the first canary probe.
  FailNextFlushes(3);

  EXPECT_EQ(service.Knn(q, 4).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.health(), ServeHealth::kHealthy);  // streak 1 < 2
  EXPECT_EQ(service.Knn(q, 4).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.health(), ServeHealth::kDegraded);

  // First degraded request is a canary (it still fails: third trigger).
  EXPECT_EQ(service.Knn(q, 4).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.health(), ServeHealth::kDegraded);

  // The fault is exhausted, but degraded requests bypass the scheduler, so
  // the service cannot observe recovery from them — they are answered
  // inline from the lower-bound index, exact per KnnLowerBound.
  const KnnResult lb = index_->KnnLowerBound(q, 4);
  for (int i = 0; i < 7; ++i) {
    const ServeResponse r = service.Knn(q, 4);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.approximate);
    ExpectSameResult(lb, r.result, "degraded serve " + std::to_string(i));
    EXPECT_EQ(service.health(), ServeHealth::kDegraded);
  }

  // The eighth ladder request is the next canary: it flows through the
  // pipeline, the flush succeeds, the streak resets, health recovers.
  const ServeResponse canary = service.Knn(q, 4);
  ASSERT_TRUE(canary.status.ok()) << canary.status.ToString();
  EXPECT_FALSE(canary.approximate);
  ExpectSameResult(index_->Knn(q, 4), canary.result, "recovery canary");
  EXPECT_EQ(service.health(), ServeHealth::kHealthy);

  // And a fully healthy service serves exact answers again.
  const ServeResponse after = service.Knn(q, 4);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.approximate);

  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.flush_failures, 3u);
  EXPECT_EQ(snap.degraded_served, 7u);
  EXPECT_EQ(snap.rejected_unhealthy, 0u);
}

TEST_F(ServeHealthLadder, PersistentFailuresGoUnhealthyAndReject) {
  ServeOptions opt = LadderOptions();
  opt.flush_failures_degraded = 1;
  opt.flush_failures_unhealthy = 2;
  QueryService service(*index_, opt);
  const std::vector<double>& q = ds_.series[8].values;

  FailNextFlushes(/*count=*/0);  // 0 = unlimited: every flush fails

  // First failure -> degraded; the canary's failure -> unhealthy.
  EXPECT_EQ(service.Knn(q, 4).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.health(), ServeHealth::kDegraded);
  EXPECT_EQ(service.Knn(q, 4).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.health(), ServeHealth::kUnhealthy);

  // Unhealthy sheds load: non-canary requests are rejected immediately
  // without touching the queue or the index.
  size_t rejected = 0;
  for (int i = 0; i < 6; ++i) {
    const ServeResponse r = service.Knn(q, 4);
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    if (r.status.message().find("unhealthy") != std::string::npos) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(service.MetricsSnapshot().rejected_unhealthy, rejected);

  // Once the fault clears, a canary probe heals the service.
  fault::Reset();
  bool healed = false;
  for (int i = 0; i < 2 * 8 && !healed; ++i)
    healed = service.Knn(q, 4).status.ok();
  EXPECT_TRUE(healed);
  EXPECT_EQ(service.health(), ServeHealth::kHealthy);
  const ServeResponse after = service.Knn(q, 4);
  ASSERT_TRUE(after.status.ok());
  ExpectSameResult(index_->Knn(q, 4), after.result, "healed exact");
}

TEST_F(ServeHealthLadder, AStaleHealthVerdictCannotOutliveANewerOne) {
  // Two blocking calls flush on their own threads. The first flush fails
  // and its health recompute is held after reading the streak; the second
  // succeeds and clears the streak meanwhile. Health must end healthy: a
  // degraded verdict published after the streak cleared would strand the
  // service, because later successful flushes see no streak to clear.
  ServeOptions opt = LadderOptions();
  opt.num_threads = 2;  // both calls run inline
  opt.flush_failures_degraded = 1;
  opt.flush_failures_unhealthy = 0;
  QueryService service(*index_, opt);
  FailNextFlushes(1);
  fault::PointConfig hold;
  hold.probability = 1.0;
  hold.max_triggers = 1;
  hold.delay_us = 100'000;
  fault::Configure("serve/health_recompute", hold);

  const std::vector<double>& failing_q = ds_.series[3].values;
  std::future<ServeResponse> failing = std::async(
      std::launch::async,
      [&service, &failing_q] { return service.Knn(failing_q, 4); });
  // Wait until the failed flush's recompute is being held.
  for (int i = 0; i < 10'000; ++i) {
    bool held = false;
    for (const fault::PointStats& p : fault::Stats())
      held |= p.name == "serve/health_recompute" && p.evaluations > 0;
    if (held) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.health(), ServeHealth::kHealthy);  // not published yet

  const std::vector<double>& q = ds_.series[4].values;
  const ServeResponse ok = service.Knn(q, 4);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_FALSE(ok.approximate);
  EXPECT_EQ(failing.get().status.code(), StatusCode::kUnavailable);

  EXPECT_EQ(service.health(), ServeHealth::kHealthy);
  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.executed_inline, 2u);
  EXPECT_EQ(snap.flush_failures, 1u);
}

TEST_F(ServeHealthLadder, ConcurrentInlineFlushesLeaveNoStaleHealth) {
  // Blocking calls flush on their own threads, so a failing flush and a
  // succeeding one race on the failure streak and on health. Whatever the
  // interleaving, health must follow the streak: once the fault clears,
  // one canary round at most heals the service. Several seeded rounds
  // give the race several chances.
  ServeOptions opt = LadderOptions();
  opt.num_threads = 4;  // all four clients fit and run inline
  opt.flush_failures_degraded = 2;
  opt.flush_failures_unhealthy = 0;  // stay degraded, keep canaries flowing
  QueryService service(*index_, opt);
  const std::vector<std::vector<double>> queries = SomeQueries(ds_);
  std::vector<KnnResult> expected;
  for (const auto& q : queries) expected.push_back(index_->Knn(q, 3));

  constexpr size_t kClients = 4;
  constexpr size_t kCallsPerClient = 200;
  for (uint64_t round = 0; round < 5; ++round) {
    fault::Reset();
    fault::Enable(/*seed=*/round + 1);
    fault::PointConfig cfg;
    cfg.probability = 0.5;
    cfg.code = StatusCode::kUnavailable;
    fault::Configure("serve/flush", cfg);

    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < kCallsPerClient; ++i) {
          const size_t qi = (c + i) % queries.size();
          const ServeResponse r = service.Knn(queries[qi], 3);
          if (r.status.ok() && !r.approximate)
            ExpectSameResult(expected[qi], r.result, "exact under faults");
        }
      });
    for (auto& t : clients) t.join();

    fault::Reset();
    bool healed = service.health() == ServeHealth::kHealthy;
    for (int i = 0; i < 2 * 8 && !healed; ++i) {
      (void)service.Knn(queries[0], 3);
      healed = service.health() == ServeHealth::kHealthy;
    }
    EXPECT_TRUE(healed) << "round " << round << ": health stuck at "
                        << ServeHealthName(service.health());
  }
  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_GT(snap.executed_inline, 0u);
  EXPECT_GT(snap.flush_failures, 0u);
}

TEST_F(ServeHealthLadder, WatchdogFlagsAStalledSchedulerAndRecovers) {
  // A 150ms stall is injected into the first flush while a second request
  // waits in the queue; the watchdog (5ms interval, 30ms degraded
  // threshold) must notice the stale heartbeat, degrade, and then recover
  // once the scheduler comes back.
  ServeOptions opt = LadderOptions();
  opt.watchdog_interval_us = 5'000;
  opt.stall_degraded_us = 30'000;
  opt.stall_unhealthy_us = 10'000'000;
  QueryService service(*index_, opt);

  fault::Reset();
  fault::Enable(/*seed=*/11);
  fault::PointConfig stall;
  stall.probability = 1.0;
  stall.max_triggers = 1;
  stall.delay_us = 150'000;
  fault::Configure("serve/flush_stall", stall);

  // First request enters the stalled flush; the second sits in the queue,
  // which is what makes the staleness count as a stall.
  auto stuck = service.SubmitKnn(ds_.series[0].values, 3);
  auto queued = service.SubmitKnn(ds_.series[1].values, 3);

  bool saw_degraded = false;
  for (int i = 0; i < 400 && !saw_degraded; ++i) {
    saw_degraded = service.health() != ServeHealth::kHealthy;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_degraded) << "watchdog never flagged the stall";

  // Both requests complete exactly once the stall passes, and the watchdog
  // clears the stall level when the heartbeat freshens.
  ASSERT_TRUE(stuck.get().status.ok());
  ASSERT_TRUE(queued.get().status.ok());
  bool recovered = false;
  for (int i = 0; i < 400 && !recovered; ++i) {
    recovered = service.health() == ServeHealth::kHealthy;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(recovered) << "health never returned to healthy";
  EXPECT_GT(service.MetricsSnapshot().watchdog_stalls, 0u);
}

// Inline-path tests hold a blocking call inside Flush with the latency-only
// fault point "serve/flush_stall" (first flush only).
class ServeInline : public ServeFixture {
 protected:
  void TearDown() override { fault::Reset(); }

  void StallFirstFlush(uint64_t delay_us) {
    fault::Reset();
    fault::Enable(/*seed=*/11);
    fault::PointConfig stall;
    stall.probability = 1.0;
    stall.max_triggers = 1;
    stall.delay_us = delay_us;
    fault::Configure("serve/flush_stall", stall);
  }

  // A blocking Knn on another thread, returned once it runs inline (and so
  // is stalled inside Flush).
  std::future<ServeResponse> HeldInlineKnn(QueryService& service,
                                           const std::vector<double>& q) {
    auto held = std::async(std::launch::async,
                           [&service, &q] { return service.Knn(q, 3); });
    for (int i = 0; i < 10'000; ++i) {
      if (service.metrics().executed_inline.load() > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(service.metrics().executed_inline.load(), 1u);
    return held;
  }
};

TEST_F(ServeInline, ABlockingCallBeyondTheThreadsGoesThroughTheQueue) {
  ServeOptions opt;
  opt.num_threads = 1;  // one blocking call fits
  opt.cache_capacity = 0;
  QueryService service(*index_, opt);
  StallFirstFlush(/*delay_us=*/500'000);

  const std::vector<double>& held_q = ds_.series[0].values;
  const std::vector<double>& q = ds_.series[1].values;
  std::future<ServeResponse> held = HeldInlineKnn(service, held_q);

  // Two blocking calls do not fit in one thread, so this one queues and the
  // scheduler runs it.
  const ServeResponse queued = service.Knn(q, 3);
  ASSERT_TRUE(queued.status.ok()) << queued.status.ToString();
  EXPECT_FALSE(queued.approximate);
  EXPECT_GT(queued.queue_us, 0u);
  ExpectSameResult(index_->Knn(q, 3), queued.result, "queued behind slot");
  EXPECT_EQ(service.metrics().executed_inline.load(), 1u);

  const ServeResponse first = held.get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.queue_us, 0u);
  ExpectSameResult(index_->Knn(held_q, 3), first.result, "held inline call");

  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.admitted, 2u);
  EXPECT_EQ(snap.batches_flushed, 2u);
  EXPECT_EQ(snap.executed_inline, 1u);
  EXPECT_EQ(snap.completed_ok, 2u);
}

TEST_F(ServeInline, BlockingCallersWaitingInAFlushCountAgainstTheThreads) {
  // Nothing runs inline and the queue is empty when the last call arrives,
  // but two blocking callers already wait inside the stalled flush. With
  // num_threads = 2 the third is one too many, so it queues: clients that
  // outnumber the threads micro-batch rather than time-slice the cores.
  ServeOptions opt;
  opt.num_threads = 2;
  opt.cache_capacity = 0;
  opt.max_batch = 3;
  opt.max_delay_us = 500'000;  // the first batch flushes on size
  QueryService service(*index_, opt);
  StallFirstFlush(/*delay_us=*/200'000);

  // An async request opens the batch; two blocking calls find the queue
  // non-empty, queue behind it and fill it, and its flush stalls.
  std::future<ServeResponse> opener =
      service.SubmitKnn(ds_.series[2].values, 3);
  const auto blocking = [&service, this](size_t qi) {
    return std::async(std::launch::async, [&service, this, qi] {
      return service.Knn(ds_.series[qi].values, 3);
    });
  };
  std::future<ServeResponse> waiting_a = blocking(4);
  std::future<ServeResponse> waiting_b = blocking(5);
  for (int i = 0; i < 10'000; ++i) {
    const std::vector<fault::PointStats> stats = fault::Stats();
    if (!stats.empty() && stats[0].evaluations > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::vector<double>& q = ds_.series[6].values;
  const ServeResponse r = service.Knn(q, 3);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(r.queue_us, 0u);
  ExpectSameResult(index_->Knn(q, 3), r.result, "third blocking caller");
  for (auto* f : {&opener, &waiting_a, &waiting_b})
    ASSERT_TRUE(f->get().status.ok());

  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.executed_inline, 0u);
  EXPECT_EQ(snap.batches_flushed, 2u);
}

TEST_F(ServeInline, StopWaitsForInlineCallsAndRefusesLaterOnes) {
  ServeOptions opt;
  opt.cache_capacity = 0;
  QueryService service(*index_, opt);
  StallFirstFlush(/*delay_us=*/200'000);

  const std::vector<double>& q = ds_.series[6].values;
  std::future<ServeResponse> held = HeldInlineKnn(service, q);
  service.Stop();
  // Nothing was queued, so only the wait for the inline call can have held
  // Stop() until the stalled call finished.
  EXPECT_EQ(service.MetricsSnapshot().completed_ok, 1u);

  const ServeResponse r = held.get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ExpectSameResult(index_->Knn(q, 3), r.result, "inline call across Stop");

  EXPECT_EQ(service.Knn(q, 3).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Range(q, 8.0).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.MetricsSnapshot().executed_inline, 1u);
}

#endif  // SAPLA_FAULT_DISABLED

}  // namespace
}  // namespace sapla
