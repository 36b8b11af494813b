#include "search/sharded_index.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace.h"
#include "search/snapshot.h"
#include "util/parallel.h"

namespace sapla {
namespace {

// splitmix64 finalizer: folds per-shard corpus ids into one order-sensitive
// fleet id.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedUs(SteadyClock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - since)
          .count());
}

}  // namespace

ShardedIndex::ShardedIndex(Method method, size_t m, IndexKind kind)
    : ShardedIndex(method, m, kind, Options()) {}

ShardedIndex::ShardedIndex(Method method, size_t m, IndexKind kind,
                           const Options& options)
    : method_(method),
      m_(m),
      kind_(kind),
      options_(options),
      reducer_(MakeReducer(method)) {
  // The merge contract demands per-shard answers that do not depend on the
  // partition, which DBCH's default §5.3 node distance cannot give (it is
  // knowingly approximate, index/dbch_tree.h). Force the sound regime on
  // every shard regardless of what the caller passed.
  options_.index.dbch_sound_bounds = true;
}

ShardedIndex::~ShardedIndex() = default;

std::string ShardedIndex::ShardSnapshotPath(const std::string& prefix,
                                            size_t shard) {
  return prefix + ".shard" + std::to_string(shard) + ".snp";
}

Status ShardedIndex::InitShards(Dataset dataset,
                                const std::string& snapshot_prefix,
                                const SnapshotLoadOptions& load_options) {
  if (options_.index.legacy_aos_corpus)
    return Status::InvalidArgument(
        "sharded index requires the columnar corpus layout");
  if (dataset.size() == 0) return Status::InvalidArgument("empty dataset");
  const size_t n = dataset.size();
  const size_t length = dataset.length();  // before the slices move out
  const size_t count =
      std::min(std::max<size_t>(1, options_.num_shards), n);

  // Build into a side vector so a failed shard leaves the index serving
  // whatever it served before.
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    const auto [lo, hi] = ParallelChunk(0, n, count, s);
    auto gen = std::make_shared<Generation>();
    gen->dataset.name = dataset.name;
    gen->dataset.series.assign(
        std::make_move_iterator(dataset.series.begin() + lo),
        std::make_move_iterator(dataset.series.begin() + hi));
    gen->index =
        std::make_unique<SimilarityIndex>(method_, m_, kind_, options_.index);
    const Status st =
        snapshot_prefix.empty()
            ? gen->index->Build(gen->dataset)
            : LoadIndexSnapshot(ShardSnapshotPath(snapshot_prefix, s),
                                gen->dataset, gen->index.get(), load_options);
    if (!st.ok()) return st;
    auto shard = std::make_unique<Shard>();
    shard->gen = std::move(gen);
    shard->lo = lo;
    shard->hi = hi;
    shards.push_back(std::move(shard));
  }
  shards_ = std::move(shards);
  total_size_ = n;
  series_length_ = length;
  return Status::OK();
}

Status ShardedIndex::Build(Dataset dataset) {
  SAPLA_TRACE_SPAN("shard/build");
  return InitShards(std::move(dataset), "", SnapshotLoadOptions{});
}

Status ShardedIndex::Restore(Dataset dataset, const std::string& prefix,
                             const SnapshotLoadOptions& load_options) {
  SAPLA_TRACE_SPAN("shard/restore");
  if (prefix.empty())
    return Status::InvalidArgument("empty snapshot prefix");
  return InitShards(std::move(dataset), prefix, load_options);
}

std::pair<size_t, size_t> ShardedIndex::ShardRange(size_t shard) const {
  if (shard >= shards_.size()) return {0, 0};
  return {shards_[shard]->lo, shards_[shard]->hi};
}

Status ShardedIndex::SaveSnapshots(
    const std::string& prefix, const SnapshotWriteOptions& write_options) const {
  SAPLA_TRACE_SPAN("shard/save_snapshots");
  if (shards_.empty())
    return Status::InvalidArgument("sharded index is not built");
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const Generation> gen;
    {
      std::lock_guard<std::mutex> lock(shards_[s]->mu);
      gen = shards_[s]->gen;
    }
    const Status st = SaveIndexSnapshot(ShardSnapshotPath(prefix, s),
                                        *gen->index, write_options);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void ShardedIndex::Publish(size_t shard,
                           std::shared_ptr<const Generation> gen) {
  Shard& sh = *shards_[shard];
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.gen = std::move(gen);
  }
  sh.health.store(static_cast<int>(ShardHealth::kHealthy));
}

Status ShardedIndex::RebuildShard(size_t shard) {
  SAPLA_TRACE_SPAN("shard/rebuild");
  if (shard >= shards_.size())
    return Status::InvalidArgument("shard out of range");
  std::shared_ptr<const Generation> old;
  {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    old = shards_[shard]->gen;
  }
  auto gen = std::make_shared<Generation>();
  gen->dataset = old->dataset;
  gen->index =
      std::make_unique<SimilarityIndex>(method_, m_, kind_, options_.index);
  const Status st = gen->index->Build(gen->dataset);
  if (!st.ok()) return st;
  Publish(shard, std::move(gen));
  return Status::OK();
}

Status ShardedIndex::RestoreShard(size_t shard, const std::string& path,
                                  const SnapshotLoadOptions& load_options) {
  SAPLA_TRACE_SPAN("shard/restore_shard");
  if (shard >= shards_.size())
    return Status::InvalidArgument("shard out of range");
  std::shared_ptr<const Generation> old;
  {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    old = shards_[shard]->gen;
  }
  auto gen = std::make_shared<Generation>();
  gen->dataset = old->dataset;
  gen->index =
      std::make_unique<SimilarityIndex>(method_, m_, kind_, options_.index);
  const Status st =
      LoadIndexSnapshot(path, gen->dataset, gen->index.get(), load_options);
  if (!st.ok()) return st;
  Publish(shard, std::move(gen));
  return Status::OK();
}

void ShardedIndex::ForEachSeries(
    const std::function<void(size_t, const TimeSeries&)>& fn) const {
  for (const Pinned& p : PinShards()) {
    const std::vector<TimeSeries>& series = p.gen->dataset.series;
    for (size_t i = 0; i < series.size(); ++i) fn(p.lo + i, series[i]);
  }
}

void ShardedIndex::SetShardHealth(size_t shard, ShardHealth health) {
  if (shard >= shards_.size()) return;
  shards_[shard]->health.store(static_cast<int>(health));
}

ShardHealth ShardedIndex::shard_health(size_t shard) const {
  if (shard >= shards_.size()) return ShardHealth::kUnhealthy;
  return static_cast<ShardHealth>(shards_[shard]->health.load());
}

uint64_t ShardedIndex::shard_corpus_id(size_t shard) const {
  if (shard >= shards_.size()) return 0;
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->gen->index->corpus_id();
}

StoreFootprint ShardedIndex::footprint() const {
  StoreFootprint total;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const Generation> gen;
    {
      std::lock_guard<std::mutex> lock(shards_[s]->mu);
      gen = shards_[s]->gen;
    }
    if (gen != nullptr && gen->index != nullptr)
      total += gen->index->footprint();
  }
  return total;
}

uint64_t ShardedIndex::corpus_id() const {
  if (shards_.empty()) return 0;
  if (shards_.size() == 1) return shard_corpus_id(0);
  uint64_t h = 0;
  for (size_t s = 0; s < shards_.size(); ++s)
    h = Mix64(h ^ shard_corpus_id(s));
  return h;
}

std::vector<ShardedIndex::Pinned> ShardedIndex::PinShards() const {
  std::vector<Pinned> pins(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      pins[s].gen = sh.gen;
    }
    pins[s].health = static_cast<ShardHealth>(sh.health.load());
    pins[s].lo = sh.lo;
  }
  return pins;
}

// Each query pins every shard's generation once, reduces the query once,
// scatters (inline when already inside a batch worker — ParallelFor nests
// safely), has each shard report global ids (its range start plus the
// local id) and merges the per-shard heaps under the (distance, id) order.
// The per-shard answer sets are exact over disjoint subsets, so the merge
// reproduces the single-index answer.
std::vector<ShardedIndex::ShardPart> ShardedIndex::Scatter(
    const std::vector<Pinned>& pins, const ReducedQuery& query,
    const EntryIds& ids, bool lower_bound_only, TopK* top) const {
  std::vector<ShardPart> parts(pins.size());
  std::vector<TopK> heaps(pins.size(), TopK(top->k()));
  {
    SAPLA_TRACE_SPAN("shard/scatter");
    ParallelFor(0, pins.size(), [&](size_t s) {
      SAPLA_TRACE_SPAN("shard/search");
      const Pinned& p = pins[s];
      if (p.health == ShardHealth::kUnhealthy) return;
      const auto w0 = SteadyClock::now();
      const EntryIds shard_ids = ids.From(p.lo);
      parts[s].counters =
          lower_bound_only || p.health == ShardHealth::kDegraded
              ? p.gen->index->KnnLowerBoundInto(query, shard_ids, &heaps[s])
              : p.gen->index->KnnInto(query, shard_ids, &heaps[s]);
      parts[s].us = ElapsedUs(w0);
    });
  }
  for (size_t s = 0; s < pins.size(); ++s) {
    parts[s].results = heaps[s].size();
    for (const auto& [dist, id] : heaps[s].Sorted()) top->Offer(dist, id);
  }
  return parts;
}

SearchCounters ShardedIndex::ScatterInto(const ReducedQuery& query,
                                         const EntryIds& ids,
                                         bool lower_bound_only, TopK* top,
                                         bool* approximate) const {
  const std::vector<Pinned> pins = PinShards();
  SearchCounters sum;
  for (const ShardPart& part :
       Scatter(pins, query, ids, lower_bound_only, top))
    sum.Add(part.counters);
  // An excluded shard makes any answer approximate, a degraded one an
  // answer that was meant to be exact.
  for (const Pinned& p : pins)
    if (p.health == ShardHealth::kUnhealthy ||
        (!lower_bound_only && p.health == ShardHealth::kDegraded))
      *approximate = true;
  return sum;
}

SearchCounters ShardedIndex::KnnInto(const ReducedQuery& query,
                                     const EntryIds& ids, TopK* top,
                                     bool* approximate) const {
  return ScatterInto(query, ids, false, top, approximate);
}

SearchCounters ShardedIndex::KnnLowerBoundInto(const ReducedQuery& query,
                                               const EntryIds& ids, TopK* top,
                                               bool* approximate) const {
  return ScatterInto(query, ids, true, top, approximate);
}

KnnResult ShardedIndex::Knn(const std::vector<double>& query,
                            size_t k) const {
  return KnnWithExplain(query, k, nullptr);
}

KnnResult ShardedIndex::KnnExplain(const std::vector<double>& query, size_t k,
                                   obs::QueryExplain* explain) const {
  return KnnWithExplain(query, k, explain);
}

KnnResult ShardedIndex::KnnWithExplain(const std::vector<double>& query,
                                       size_t k,
                                       obs::QueryExplain* explain) const {
  SAPLA_TRACE_SPAN("shard/knn");
  const auto t0 = SteadyClock::now();
  KnnResult out;
  if (k == 0) return out;
  const std::vector<Pinned> pins = PinShards();
  for (const Pinned& p : pins)
    if (p.health != ShardHealth::kHealthy) out.approximate = true;
  const ReducedQuery reduced(*reducer_, m_, query);
  TopK top(k);
  const auto s0 = SteadyClock::now();
  const std::vector<ShardPart> parts =
      Scatter(pins, reduced, EntryIds{}, false, &top);
  const uint64_t scatter_us = ElapsedUs(s0);
  uint64_t merge_us = 0;
  {
    SAPLA_TRACE_SPAN("shard/merge");
    const auto m0 = SteadyClock::now();
    for (const ShardPart& part : parts) out.counters.Add(part.counters);
    out.num_measured = out.counters.exact_evaluations;
    out.neighbors = top.Sorted();
    merge_us = ElapsedUs(m0);
  }
  if (explain != nullptr) {
    explain->trace_id = obs::CurrentTraceContext().trace_id;
    explain->total_us = ElapsedUs(t0);
    explain->approximate = out.approximate;
    explain->counters = out.counters;
    explain->stages.push_back({"scatter", scatter_us});
    explain->stages.push_back({"merge", merge_us});
    for (size_t s = 0; s < pins.size(); ++s) {
      obs::ShardExplain part;
      part.part = "shard" + std::to_string(s);
      part.health = static_cast<int>(pins[s].health);
      part.dur_us = parts[s].us;
      part.results = parts[s].results;
      part.counters = parts[s].counters;
      explain->parts.push_back(std::move(part));
    }
  }
  return out;
}

KnnResult ShardedIndex::KnnLowerBound(const std::vector<double>& query,
                                      size_t k) const {
  SAPLA_TRACE_SPAN("shard/knn_lb");
  KnnResult out;
  if (k == 0) return out;
  const ReducedQuery reduced(*reducer_, m_, query);
  TopK top(k);
  out.counters =
      KnnLowerBoundInto(reduced, EntryIds{}, &top, &out.approximate);
  out.neighbors = top.Sorted();
  return out;
}

KnnResult ShardedIndex::RangeSearch(const std::vector<double>& query,
                                    double radius) const {
  return RangeSearchWithExplain(query, radius, nullptr);
}

KnnResult ShardedIndex::RangeSearchWithExplain(
    const std::vector<double>& query, double radius,
    obs::QueryExplain* explain) const {
  SAPLA_TRACE_SPAN("shard/range");
  const auto t0 = SteadyClock::now();
  const std::vector<Pinned> pins = PinShards();
  std::vector<KnnResult> parts(pins.size());
  std::vector<uint64_t> part_us(explain == nullptr ? 0 : pins.size(), 0);
  bool approximate = false;
  for (const Pinned& p : pins)
    if (p.health != ShardHealth::kHealthy) approximate = true;
  uint64_t scatter_us = 0;
  {
    SAPLA_TRACE_SPAN("shard/scatter");
    const auto s0 = SteadyClock::now();
    ParallelFor(0, pins.size(), [&](size_t s) {
      SAPLA_TRACE_SPAN("shard/search");
      const Pinned& p = pins[s];
      if (p.health == ShardHealth::kUnhealthy) return;
      const auto w0 = SteadyClock::now();
      parts[s] = p.health == ShardHealth::kDegraded
                     ? p.gen->index->RangeSearchLowerBound(query, radius)
                     : p.gen->index->RangeSearch(query, radius);
      if (explain != nullptr) part_us[s] = ElapsedUs(w0);
    });
    scatter_us = ElapsedUs(s0);
  }
  KnnResult out;
  uint64_t merge_us = 0;
  {
    SAPLA_TRACE_SPAN("shard/merge");
    const auto m0 = SteadyClock::now();
    for (size_t s = 0; s < pins.size(); ++s) {
      for (const auto& [dist, id] : parts[s].neighbors)
        out.neighbors.emplace_back(dist, id + pins[s].lo);
      out.num_measured += parts[s].num_measured;
      out.counters.Add(parts[s].counters);
    }
    std::sort(out.neighbors.begin(), out.neighbors.end());
    merge_us = ElapsedUs(m0);
  }
  out.approximate = approximate;
  if (explain != nullptr) {
    explain->trace_id = obs::CurrentTraceContext().trace_id;
    explain->total_us = ElapsedUs(t0);
    explain->approximate = out.approximate;
    explain->counters = out.counters;
    explain->stages.push_back({"scatter", scatter_us});
    explain->stages.push_back({"merge", merge_us});
    for (size_t s = 0; s < pins.size(); ++s) {
      obs::ShardExplain part;
      part.part = "shard" + std::to_string(s);
      part.health = static_cast<int>(pins[s].health);
      part.dur_us = part_us[s];
      part.results = parts[s].neighbors.size();
      part.counters = parts[s].counters;
      explain->parts.push_back(std::move(part));
    }
  }
  return out;
}

KnnResult ShardedIndex::RangeSearchLowerBound(const std::vector<double>& query,
                                              double radius) const {
  SAPLA_TRACE_SPAN("shard/range_lb");
  const std::vector<Pinned> pins = PinShards();
  std::vector<KnnResult> parts(pins.size());
  bool approximate = false;
  ParallelFor(0, pins.size(), [&](size_t s) {
    if (pins[s].health == ShardHealth::kUnhealthy) return;
    parts[s] = pins[s].gen->index->RangeSearchLowerBound(query, radius);
  });
  KnnResult out;
  for (size_t s = 0; s < pins.size(); ++s) {
    if (pins[s].health == ShardHealth::kUnhealthy) {
      approximate = true;
      continue;
    }
    for (const auto& [dist, id] : parts[s].neighbors)
      out.neighbors.emplace_back(dist, id + pins[s].lo);
    out.num_measured += parts[s].num_measured;
    out.counters.Add(parts[s].counters);
  }
  std::sort(out.neighbors.begin(), out.neighbors.end());
  out.approximate = approximate;
  return out;
}

// Batch workers re-bind the per-request context before touching the index:
// the batch groups requests from many clients, so the worker's ambient
// context (the scheduler's) is the wrong tree for every one of them.
std::vector<KnnResult> ShardedIndex::KnnBatch(
    const std::vector<std::vector<double>>& queries, size_t k,
    const BatchOptions& options) const {
  std::vector<KnnResult> results(queries.size());
  ParallelFor(
      0, queries.size(),
      [&](size_t i) {
        if (options.cancel && options.cancel(i)) return;
        const obs::TraceContext ctx = options.trace_of
                                          ? options.trace_of(i)
                                          : obs::CurrentTraceContext();
        obs::TraceContextScope trace_scope(ctx);
        SAPLA_TRACE_SPAN("batch/query");
        obs::QueryExplain* explain =
            options.explain_of ? options.explain_of(i) : nullptr;
        results[i] = KnnWithExplain(queries[i], k, explain);
      },
      options.num_threads);
  return results;
}

std::vector<KnnResult> ShardedIndex::RangeSearchBatch(
    const std::vector<std::vector<double>>& queries, double radius,
    const BatchOptions& options) const {
  std::vector<KnnResult> results(queries.size());
  ParallelFor(
      0, queries.size(),
      [&](size_t i) {
        if (options.cancel && options.cancel(i)) return;
        const obs::TraceContext ctx = options.trace_of
                                          ? options.trace_of(i)
                                          : obs::CurrentTraceContext();
        obs::TraceContextScope trace_scope(ctx);
        SAPLA_TRACE_SPAN("batch/query");
        obs::QueryExplain* explain =
            options.explain_of ? options.explain_of(i) : nullptr;
        results[i] = RangeSearchWithExplain(queries[i], radius, explain);
      },
      options.num_threads);
  return results;
}

}  // namespace sapla
