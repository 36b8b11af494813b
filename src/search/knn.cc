#include "search/knn.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "distance/kernels.h"
#include "distance/mindist.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace sapla {
namespace {

// Post-traversal bookkeeping shared by Knn and RangeSearch: the entries a
// backend never surfaced to the visit callback were pruned at node level,
// and the deepest cascade stage reached classifies the query for the
// serving-layer counters.
void FinalizeCounters(SearchCounters* c, size_t dataset_size) {
  c->entries_pruned_node = dataset_size - c->lb_evaluations;
  if (c->exact_evaluations > 0) {
    c->cascade_stage = CascadeStage::kExact;
  } else if (c->lb_evaluations > 0) {
    c->cascade_stage = CascadeStage::kLeafFilter;
  } else {
    c->cascade_stage = CascadeStage::kNodePrune;
  }
}

}  // namespace

std::vector<std::pair<double, size_t>> TopK::Sorted() const {
  std::vector<std::pair<double, size_t>> v(heap_.size());
  auto copy = heap_;
  for (size_t i = v.size(); i-- > 0;) {
    v[i] = copy.top();
    copy.pop();
  }
  return v;
}

ReducedQuery::ReducedQuery(const Reducer& reducer, size_t m,
                           const std::vector<double>& raw)
    : fitter_(raw) {
  // The query reduces through the same columnar path as the corpus: into
  // a single-entry store, viewed for the query's lifetime.
  reducer.ReduceInto(raw, m, &store_);
  rep_ = store_.view(0);
}

double KnnRefiner::Visit(size_t id, const RepView& rep,
                         const std::vector<double>& raw, double slack) {
  // Dist_LB against the raw query is rigorous for the segment methods. Over
  // a quantized corpus it is measured against the *quantized*
  // representation, which can exceed the true lower bound by the entry's
  // slack; subtracting it keeps the filter sound (no true neighbor is
  // pruned), and the exact refinement is untouched by quantization.
  double lb = FilterDistanceView(query_.fitter(), query_.rep(), rep, &scratch_);
  if (slack > 0.0) lb = std::max(0.0, lb - slack);
  ++c_->lb_evaluations;
  if (lb <= top_->Bound()) {
    const double exact = EuclideanDistance(query_.raw(), raw);
    ++c_->exact_evaluations;
    if (exact > 0.0) {
      c_->lb_tightness_sum += lb / exact;
      ++c_->lb_tightness_count;
    }
    top_->Offer(exact, id);
  } else {
    ++c_->entries_pruned_leaf;
  }
  return top_->Bound();
}

KnnResult LinearScanKnn(const Dataset& dataset,
                        const std::vector<double>& query, size_t k) {
  SAPLA_TRACE_SPAN("knn/linear_scan");
  KnnResult result;
  if (k == 0) return result;
  TopK top(k);
  for (size_t i = 0; i < dataset.size(); ++i)
    top.Offer(EuclideanDistance(query, dataset.series[i].values), i);
  result.neighbors = top.Sorted();
  result.num_measured = dataset.size();
  result.counters.exact_evaluations = dataset.size();
  result.counters.cascade_stage = CascadeStage::kExact;
  return result;
}

SimilarityIndex::SimilarityIndex(Method method, size_t m, IndexKind kind,
                                 const Options& options)
    : method_(method), m_(m), kind_(kind), options_(options) {
  reducer_ = MakeReducer(method);
}

SimilarityIndex::~SimilarityIndex() = default;

Status SimilarityIndex::Build(const Dataset& dataset, BuildInfo* info) {
  SAPLA_TRACE_SPAN("index/build");
  SAPLA_FAULT_POINT("index/build");
  if (dataset.size() == 0)
    return Status::InvalidArgument("empty dataset");
  if (dataset.length() < 2)
    return Status::InvalidArgument("series shorter than 2 points");
  for (const TimeSeries& ts : dataset.series) {
    if (ts.size() != dataset.length())
      return Status::InvalidArgument("dataset series have unequal lengths");
    for (const double v : ts.values) {
      if (!std::isfinite(v))
        return Status::InvalidArgument(
            "dataset contains non-finite values; clean or impute first");
    }
  }
  dataset_ = &dataset;

  // Per-series reduction is embarrassingly parallel: Reducer::Reduce is
  // const and stateless, and each iteration writes only its own slot.
  CpuTimer reduce_cpu;
  WallTimer reduce_wall;
  reps_.assign(dataset.size(), Representation{});
  ParallelFor(0, dataset.size(), [&](size_t i) {
    reps_[i] = reducer_->Reduce(dataset.series[i].values, m_);
  });
  store_.Reset();
  if (!options_.legacy_aos_corpus) {
    // Transpose the parallel-reduced AoS batch into the columnar store
    // (Append is order-preserving, so store ids == series ids), then drop
    // the AoS copies — the store is the corpus from here on.
    for (const Representation& rep : reps_) store_.Append(rep);
    reps_.clear();
    reps_.shrink_to_fit();
  }
  const double reduce_cpu_s = reduce_cpu.Seconds();
  const double reduce_wall_s = reduce_wall.Seconds();

  CpuTimer insert_timer;
  IndexBackendContext ctx;
  ctx.method = method_;
  ctx.m = m_;
  ctx.dataset = dataset_;
  if (options_.legacy_aos_corpus) {
    ctx.reps = &reps_;
  } else {
    ctx.store = &store_;
  }
  ctx.options = options_;
  auto backend = MakeIndexBackendByName(IndexKindName(kind_), ctx);
  if (!backend.ok()) return backend.status();
  backend_ = std::move(backend).ValueOrDie();
  for (size_t i = 0; i < dataset.size(); ++i) backend_->Insert(i);
  const double insert_s = insert_timer.Seconds();

  if (info != nullptr) {
    info->reduce_cpu_seconds = reduce_cpu_s;
    info->reduce_wall_seconds = reduce_wall_s;
    info->insert_cpu_seconds = insert_s;
    info->stats = stats();
  }
  return Status::OK();
}

Status SimilarityIndex::RestoreFromStore(const Dataset& dataset,
                                         RepresentationStore store,
                                         const std::string& tree_bytes) {
  SAPLA_TRACE_SPAN("index/restore");
  if (options_.legacy_aos_corpus)
    return Status::InvalidArgument(
        "RestoreFromStore requires the columnar corpus layout");
  if (dataset.size() == 0) return Status::InvalidArgument("empty dataset");
  if (store.method() != method_)
    return Status::InvalidArgument("store method does not match the index");
  if (store.size() != dataset.size())
    return Status::InvalidArgument("store size does not match the dataset");
  if (store.series_length() != dataset.length())
    return Status::InvalidArgument(
        "store series length does not match the dataset");
  dataset_ = &dataset;
  store_ = std::move(store);
  reps_.clear();
  reps_.shrink_to_fit();

  IndexBackendContext ctx;
  ctx.method = method_;
  ctx.m = m_;
  ctx.dataset = dataset_;
  ctx.store = &store_;
  ctx.options = options_;
  auto backend = MakeIndexBackendByName(IndexKindName(kind_), ctx);
  if (!backend.ok()) return backend.status();
  backend_ = std::move(backend).ValueOrDie();
  if (!tree_bytes.empty()) {
    const Status restored = backend_->RestoreTree(tree_bytes);
    if (!restored.ok()) return restored;
  } else {
    // Re-insert serially in id order — Build's exact procedure, so the tree
    // shape (and hence every traversal counter) matches a fresh Build.
    for (size_t i = 0; i < dataset.size(); ++i) backend_->Insert(i);
  }
  if (stats().entries != dataset.size())
    return Status::Internal("restored tree entry count mismatch");
  return Status::OK();
}

TreeStats SimilarityIndex::stats() const {
  return backend_ ? backend_->ComputeStats() : TreeStats{};
}

KnnResult SimilarityIndex::Knn(const std::vector<double>& query,
                               size_t k) const {
  SAPLA_TRACE_SPAN("knn/query");
  SAPLA_DCHECK(dataset_ != nullptr);
  SAPLA_DCHECK(query.size() == dataset_->length());
  KnnResult result;
  if (k == 0) return result;
  const ReducedQuery reduced(*reducer_, m_, query);
  TopK top(k);
  result.counters = KnnInto(reduced, EntryIds{}, &top);
  result.num_measured = result.counters.exact_evaluations;
  result.neighbors = top.Sorted();
  return result;
}

SearchCounters SimilarityIndex::KnnInto(const ReducedQuery& query,
                                        const EntryIds& ids, TopK* top) const {
  return ids.ids == nullptr && ids.hidden == nullptr
             ? SearchKnn<false>(query, ids, top)
             : SearchKnn<true>(query, ids, top);
}

template <bool kMapped>
SearchCounters SimilarityIndex::SearchKnn(const ReducedQuery& query,
                                          const EntryIds& ids,
                                          TopK* top) const {
  SAPLA_DCHECK(dataset_ != nullptr && top->k() > 0);
  SearchCounters c;
  KnnRefiner refiner(query, top, &c);
  StoreReadPin pin;  // keeps the current cold frame decoded across visits
  const bool has_slack = !options_.legacy_aos_corpus && store_.quantized();
  // Backend-agnostic leaf handler. It prunes against the heap's bound, not
  // the traversal's: the heap may hold other indexes' candidates.
  const auto visit = [&](size_t local, double /*bound*/) {
    size_t id = ids.offset + local;
    if constexpr (kMapped) {
      if (ids.ids != nullptr) id = static_cast<size_t>(ids.ids[local]);
      if (ids.hidden != nullptr &&
          std::binary_search(ids.hidden->begin(), ids.hidden->end(), id))
        return top->Bound();
    }
    return refiner.Visit(id, corpus_view(local, &pin),
                         dataset_->series[local].values,
                         has_slack ? store_.lb_slack(local) : 0.0);
  };
  {
    SAPLA_TRACE_SPAN("knn/traverse");
    backend_->BestFirstSearch(query.raw(), query.rep(), visit, &c,
                              top->Bound());
  }
  FinalizeCounters(&c, dataset_->size());
  return c;
}

KnnResult SimilarityIndex::RangeSearch(const std::vector<double>& query,
                                       double radius) const {
  SAPLA_TRACE_SPAN("range/query");
  SAPLA_DCHECK(dataset_ != nullptr);
  SAPLA_DCHECK(query.size() == dataset_->length());
  const ReducedQuery reduced(*reducer_, m_, query);
  DistanceScratch scratch;

  KnnResult result;
  // The pruning bound is the fixed radius: visit never tightens it, so the
  // traversal enumerates exactly the nodes/entries within range.
  SearchCounters& c = result.counters;
  StoreReadPin pin;
  const bool has_slack = !options_.legacy_aos_corpus && store_.quantized();
  const auto visit = [&](size_t id, double /*bound*/) {
    double lb = FilterDistanceView(reduced.fitter(), reduced.rep(),
                                   corpus_view(id, &pin), &scratch);
    if (has_slack) lb = std::max(0.0, lb - store_.lb_slack(id));
    ++c.lb_evaluations;
    if (lb <= radius) {
      const double exact =
          EuclideanDistance(query, dataset_->series[id].values);
      ++result.num_measured;
      ++c.exact_evaluations;
      if (exact > 0.0) {
        c.lb_tightness_sum += lb / exact;
        ++c.lb_tightness_count;
      }
      if (exact <= radius) result.neighbors.emplace_back(exact, id);
    } else {
      ++c.entries_pruned_leaf;
    }
    return radius;
  };
  {
    SAPLA_TRACE_SPAN("range/traverse");
    backend_->BestFirstSearch(query, reduced.rep(), visit, &c);
  }
  FinalizeCounters(&c, dataset_->size());

  // Pair sort: ascending distance, ties by ascending id — deterministic
  // regardless of backend traversal order.
  std::sort(result.neighbors.begin(), result.neighbors.end());
  return result;
}

KnnResult SimilarityIndex::KnnLowerBound(const std::vector<double>& query,
                                         size_t k) const {
  SAPLA_TRACE_SPAN("knn/lower_bound");
  SAPLA_DCHECK(dataset_ != nullptr);
  SAPLA_DCHECK(query.size() == dataset_->length());
  KnnResult result;
  if (k == 0) return result;
  const ReducedQuery reduced(*reducer_, m_, query);
  TopK top(k);
  result.counters = KnnLowerBoundInto(reduced, EntryIds{}, &top);
  result.neighbors = top.Sorted();
  return result;
}

SearchCounters SimilarityIndex::KnnLowerBoundInto(const ReducedQuery& query,
                                                  const EntryIds& ids,
                                                  TopK* top) const {
  SAPLA_DCHECK(dataset_ != nullptr);
  const size_t num = dataset_->size();
  const auto reported = [&](size_t local) {
    return ids.ids != nullptr ? static_cast<size_t>(ids.ids[local])
                              : ids.offset + local;
  };
  // Hidden entries are left out before any evaluation: the batch below
  // runs over the remaining local ids only.
  std::vector<size_t> shown;
  if (ids.hidden != nullptr) {
    shown.reserve(num);
    for (size_t local = 0; local < num; ++local)
      if (!std::binary_search(ids.hidden->begin(), ids.hidden->end(),
                              reported(local)))
        shown.push_back(local);
  }
  const size_t* locals = ids.hidden != nullptr ? shown.data() : nullptr;
  const size_t count = ids.hidden != nullptr ? shown.size() : num;
  const std::vector<double> lbs = FilterBounds(query, locals, count);
  for (size_t j = 0; j < count; ++j)
    top->Offer(lbs[j], reported(locals != nullptr ? locals[j] : j));
  SearchCounters c;
  c.lb_evaluations = count;
  c.entries_pruned_node = num - count;
  c.cascade_stage = CascadeStage::kLeafFilter;
  return c;
}

KnnResult SimilarityIndex::RangeSearchLowerBound(
    const std::vector<double>& query, double radius) const {
  SAPLA_TRACE_SPAN("range/lower_bound");
  SAPLA_DCHECK(dataset_ != nullptr);
  SAPLA_DCHECK(query.size() == dataset_->length());
  const ReducedQuery reduced(*reducer_, m_, query);
  const size_t num = dataset_->size();
  const std::vector<double> lbs = FilterBounds(reduced, nullptr, num);
  KnnResult result;
  for (size_t id = 0; id < num; ++id)
    if (lbs[id] <= radius) result.neighbors.emplace_back(lbs[id], id);
  std::sort(result.neighbors.begin(), result.neighbors.end());
  result.counters.lb_evaluations = num;
  result.counters.cascade_stage = CascadeStage::kLeafFilter;
  return result;
}

std::vector<double> SimilarityIndex::FilterBounds(const ReducedQuery& query,
                                                  const size_t* locals,
                                                  size_t count) const {
  const auto local_of = [&](size_t j) { return locals ? locals[j] : j; };
  DistanceScratch scratch;
  std::vector<double> lbs(count);
  if (options_.legacy_aos_corpus) {
    for (size_t j = 0; j < count; ++j)
      lbs[j] = FilterDistanceView(query.fitter(), query.rep(),
                                  RepView::Of(reps_[local_of(j)]), &scratch);
    return lbs;
  }
  // The batched kernel streams the store's columns (or decodes
  // frame-by-frame for a cold store). A quantized corpus's bounds are
  // loosened by the per-series slack so they remain true lower bounds.
  FilterDistanceBatch(query.fitter(), query.rep(), store_, locals, count,
                      lbs.data(), &scratch);
  if (store_.quantized())
    for (size_t j = 0; j < count; ++j)
      lbs[j] = std::max(0.0, lbs[j] - store_.lb_slack(local_of(j)));
  return lbs;
}

// Batch workers re-bind the per-request context (options.trace_of) before
// searching: the batch mixes requests from many clients, and each query's
// spans must stitch into its own submitter's trace tree.
std::vector<KnnResult> SimilarityIndex::KnnBatch(
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
        if (obs::QueryExplain* explain =
                options.explain_of ? options.explain_of(i) : nullptr) {
          results[i] = KnnExplain(queries[i], k, explain);
        } else {
          results[i] = Knn(queries[i], k);
        }
      },
      options.num_threads);
  return results;
}

std::vector<KnnResult> SimilarityIndex::RangeSearchBatch(
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
        const auto t0 = std::chrono::steady_clock::now();
        results[i] = RangeSearch(queries[i], radius);
        if (explain != nullptr) {
          const uint64_t dur_us = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
          explain->trace_id = ctx.trace_id;
          explain->total_us = dur_us;
          explain->approximate = results[i].approximate;
          explain->counters = results[i].counters;
          explain->stages.push_back({"search", dur_us});
          obs::ShardExplain part;
          part.part = "index";
          part.dur_us = dur_us;
          part.results = results[i].neighbors.size();
          part.counters = results[i].counters;
          explain->parts.push_back(std::move(part));
        }
      },
      options.num_threads);
  return results;
}

}  // namespace sapla
