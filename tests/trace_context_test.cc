// Tests for request-scoped TraceContext propagation (obs/trace.h).
//
// The invariants that make one request's spans stitch into one tree and
// nobody else's:
//
//   - a sampled request keeps ONE trace id across every thread that does
//     its work: the admitting client thread, the scheduler's batch pool
//     workers, the shard-scatter workers, and a hedge duplicate issued by
//     the retry layer
//   - concurrent sampled requests never share spans: span ids are unique
//     process-wide, and a span's parent always belongs to the same trace
//     (CI runs this file under TSan, so "no leak" is also "no race")
//   - while tracing is disabled the whole machinery is inert: no events,
//     no trace-id or span-id allocation — the hot path pays one relaxed
//     atomic load and nothing else
//   - flags (retry/hedge annotations) ride the ambient context even when
//     unsampled, so the slow-query log can attribute attempts with tracing
//     off
//   - a blocking request that runs inline on the caller's thread is still
//     one tree rooted at its serve/admit span, which closes before any
//     execution span opens

#include "obs/trace.h"

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "search/sharded_index.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "ts/synthetic_archive.h"
#include "util/parallel.h"

namespace sapla {
namespace {

#ifdef SAPLA_OBS_DISABLED
#define SKIP_IF_TRACING_COMPILED_OUT() \
  GTEST_SKIP() << "tracing compiled out (SAPLA_OBS=OFF)"
#else
#define SKIP_IF_TRACING_COMPILED_OUT() (void)0
#endif

Dataset SmallDataset(size_t id = 3, size_t n = 96, size_t count = 60) {
  SyntheticOptions opt;
  opt.length = n;
  opt.num_series = count;
  return MakeSyntheticDataset(id, opt);
}

// Trace state is process-global; every test starts clean and disabled.
class TraceContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTraceEnabled(false);
    obs::ClearTrace();
  }
  void TearDown() override {
    obs::SetTraceEnabled(false);
    obs::ClearTrace();
  }
};

TEST_F(TraceContextTest, MintIsInertWhileDisabled) {
  const obs::TraceContext ctx = obs::MintTraceContext();
  EXPECT_FALSE(ctx.sampled);
  EXPECT_EQ(ctx.trace_id, 0u);
  EXPECT_EQ(ctx.span_id, 0u);
}

TEST_F(TraceContextTest, ScopeInstallsAndRestores) {
  obs::SetTraceEnabled(true);
  const obs::TraceContext before = obs::CurrentTraceContext();
  const obs::TraceContext minted = obs::MintTraceContext();
  EXPECT_TRUE(minted.sampled);
  EXPECT_NE(minted.trace_id, 0u);
  {
    obs::TraceContextScope scope(minted);
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, minted.trace_id);
    EXPECT_TRUE(obs::CurrentTraceContext().sampled);
  }
  EXPECT_EQ(obs::CurrentTraceContext().trace_id, before.trace_id);
  EXPECT_EQ(obs::CurrentTraceContext().sampled, before.sampled);
}

TEST_F(TraceContextTest, FlagsRideAlongEvenUnsampled) {
  // Tracing stays off: the retry layer must still be able to annotate a
  // hedge so the slow-query log can attribute it.
  obs::TraceContext ctx = obs::CurrentTraceContext();
  ctx.flags |= obs::kTraceFlagHedge;
  obs::TraceContextScope scope(ctx);
  EXPECT_FALSE(obs::CurrentTraceContext().sampled);
  EXPECT_NE(obs::CurrentTraceContext().flags & obs::kTraceFlagHedge, 0u);
}

TEST_F(TraceContextTest, ParallelForForwardsContextIntoChunks) {
  obs::SetTraceEnabled(true);
  const obs::TraceContext minted = obs::MintTraceContext();
  obs::TraceContextScope scope(minted);
  std::vector<uint64_t> seen(64, 0);
  ParallelFor(0, seen.size(),
              [&](size_t i) { seen[i] = obs::CurrentTraceContext().trace_id; });
  for (const uint64_t id : seen) EXPECT_EQ(id, minted.trace_id);
}

TEST_F(TraceContextTest, DisabledAllocatesNoTraceIds) {
  SKIP_IF_TRACING_COMPILED_OUT();
  // Mint once enabled to observe the allocator position...
  obs::SetTraceEnabled(true);
  const obs::TraceContext first = obs::MintTraceContext();
  obs::SetTraceEnabled(false);

  // ...then drive real requests while disabled: admission must not mint
  // (QueryService's sample gate is behind TraceEnabled) and spans must not
  // record or allocate span ids.
  const Dataset ds = SmallDataset();
  ShardedIndex::Options sopt;
  sopt.num_shards = 2;
  ShardedIndex index(Method::kSapla, 12, IndexKind::kDbchTree, sopt);
  ASSERT_TRUE(index.Build(ds).ok());
  ServeOptions opt;
  opt.cache_capacity = 0;
  opt.trace_sample_every = 1;
  {
    QueryService service(index, opt);
    for (size_t i = 0; i < 8; ++i) {
      const ServeResponse r = service.Knn(ds.series[i].values, 3);
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(r.trace_id, 0u);  // unsampled
    }
  }
  EXPECT_TRUE(obs::CollectTrace().empty());

  // The very next mint is adjacent to the first: nothing in between
  // consumed a trace id.
  obs::SetTraceEnabled(true);
  const obs::TraceContext second = obs::MintTraceContext();
  EXPECT_EQ(second.trace_id, first.trace_id + 1);
}

TEST_F(TraceContextTest, OneRequestOneTraceIdAcrossSchedulerShardsAndHedge) {
  SKIP_IF_TRACING_COMPILED_OUT();
  const Dataset ds = SmallDataset();
  ShardedIndex::Options sopt;
  sopt.num_shards = 4;
  ShardedIndex index(Method::kSapla, 12, IndexKind::kDbchTree, sopt);
  ASSERT_TRUE(index.Build(ds).ok());

  ServeOptions opt;
  opt.cache_capacity = 0;
  opt.trace_sample_every = 1;
  QueryService service(index, opt);

  RetryPolicy policy;
  policy.hedge_delay_us = 1;  // hedge fires unless the primary is instant
  RetryingClient client(service, policy);

  obs::SetTraceEnabled(true);
  const ServeResponse response = client.Knn(ds.series[5].values, 4);
  obs::SetTraceEnabled(false);
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.trace_id, 0u);

  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  std::set<std::string> names;
  std::set<uint32_t> tids;
  for (const obs::TraceEvent& e : events) {
    if (e.trace_id != response.trace_id) continue;
    names.insert(e.name);
    tids.insert(e.tid);
  }
  // The request's tree covers admission (client thread), the batch worker
  // re-bind, and the shard scatter / per-shard search / merge stages.
  for (const char* required : {"serve/admit", "batch/query", "shard/knn",
                               "shard/scatter", "shard/search", "shard/merge"})
    EXPECT_TRUE(names.count(required)) << "missing span " << required;
  // Admission runs on the client thread, execution on pool workers: the
  // one trace id spans at least two threads.
  EXPECT_GE(tids.size(), 2u);
  // Everything of this request — including whichever of primary/hedge
  // lost — carries the same trace id; no second trace id contains a
  // serve/admit for this client's query (the hedge reuses the logical
  // request's id rather than minting its own).
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "serve/admit") {
      EXPECT_EQ(e.trace_id, response.trace_id);
    }
  }
}

TEST_F(TraceContextTest, InlineRequestIsOneTreeAndAdmitClosesFirst) {
  SKIP_IF_TRACING_COMPILED_OUT();
  const Dataset ds = SmallDataset();
  SimilarityIndex index(Method::kSapla, 12, IndexKind::kDbchTree);
  ASSERT_TRUE(index.Build(ds).ok());

  ServeOptions opt;
  opt.cache_capacity = 0;  // no cache spans nested under serve/admit
  opt.trace_sample_every = 1;
  QueryService service(index, opt);

  obs::SetTraceEnabled(true);
  const ServeResponse response = service.Knn(ds.series[4].values, 3);
  obs::SetTraceEnabled(false);
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.trace_id, 0u);
  ASSERT_EQ(service.MetricsSnapshot().executed_inline, 1u);

  std::vector<obs::TraceEvent> spans;
  for (const obs::TraceEvent& e : obs::CollectTrace())
    if (e.trace_id == response.trace_id) spans.push_back(e);
  std::set<uint64_t> ids;
  std::set<std::string> names;
  std::set<uint32_t> tids;
  for (const obs::TraceEvent& e : spans) {
    ids.insert(e.span_id);
    names.insert(e.name);
    tids.insert(e.tid);
  }
  for (const char* required :
       {"serve/admit", "serve/flush", "serve/exec_group", "batch/query"})
    EXPECT_TRUE(names.count(required)) << "missing span " << required;
  // The calling thread did all of the work.
  EXPECT_EQ(tids.size(), 1u);

  // One tree: serve/admit is the only span whose parent lies outside the
  // trace, and every execution span opens after it has closed.
  const obs::TraceEvent* admit = nullptr;
  for (const obs::TraceEvent& e : spans) {
    if (ids.count(e.parent_span_id)) continue;
    EXPECT_EQ(admit, nullptr) << "second root " << e.name;
    admit = &e;
  }
  ASSERT_NE(admit, nullptr);
  EXPECT_EQ(std::string(admit->name), "serve/admit");
  for (const obs::TraceEvent& e : spans) {
    if (&e == admit) continue;
    EXPECT_GE(e.start_us, admit->start_us + admit->dur_us)
        << e.name << " opened before serve/admit closed";
  }
}

TEST_F(TraceContextTest, ConcurrentSampledRequestsNeverShareSpans) {
  SKIP_IF_TRACING_COMPILED_OUT();
  const Dataset ds = SmallDataset();
  ShardedIndex::Options sopt;
  sopt.num_shards = 2;
  ShardedIndex index(Method::kSapla, 12, IndexKind::kDbchTree, sopt);
  ASSERT_TRUE(index.Build(ds).ok());

  ServeOptions opt;
  opt.cache_capacity = 0;
  opt.trace_sample_every = 1;
  opt.max_batch = 8;  // force multi-request batches: contexts must re-bind
  QueryService service(index, opt);

  obs::SetTraceEnabled(true);
  constexpr size_t kClients = 8, kPerClient = 6;
  std::vector<std::vector<uint64_t>> trace_ids(kClients);
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t r = 0; r < kPerClient; ++r) {
          const ServeResponse resp =
              service.Knn(ds.series[(c * kPerClient + r) % ds.size()].values,
                          3);
          if (resp.status.ok()) trace_ids[c].push_back(resp.trace_id);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  obs::SetTraceEnabled(false);

  // Every request got its own trace id.
  std::set<uint64_t> distinct;
  size_t total = 0;
  for (const auto& ids : trace_ids)
    for (const uint64_t id : ids) {
      EXPECT_NE(id, 0u);
      distinct.insert(id);
      ++total;
    }
  EXPECT_EQ(distinct.size(), total);

  // No span is claimed by two traces, and parentage never crosses traces:
  // a span's parent, when recorded, belongs to the same trace id.
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  std::map<uint64_t, uint64_t> span_trace;  // span id -> trace id
  for (const obs::TraceEvent& e : events) {
    if (e.span_id == 0) continue;
    const auto [it, inserted] = span_trace.emplace(e.span_id, e.trace_id);
    EXPECT_TRUE(inserted) << "span id " << e.span_id << " recorded twice";
  }
  for (const obs::TraceEvent& e : events) {
    if (e.parent_span_id == 0) continue;
    const auto it = span_trace.find(e.parent_span_id);
    if (it != span_trace.end()) {
      EXPECT_EQ(it->second, e.trace_id)
          << "span " << e.span_id << " parented across traces";
    }
  }
}

}  // namespace
}  // namespace sapla
