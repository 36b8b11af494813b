// Repository benchmark: exact k-NN against a scan, serving over live
// ingest, and a traced per-stage split (README.md has the workloads, the
// metrics and what each metric is expected to move).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// The seed drives the query and writer streams; the corpora are fixed per
// workload. Every k-NN answer is checked against the benchmark's own
// brute-force ground truth (oracle.h). With --trace 0 the run measures the
// end-to-end metrics with tracing off; with --trace 1 it measures the
// per-layer split by timing calls into the library's public functions, and
// writes the library's spans plus the benchmark's own into one Chrome trace.
// The last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A human-readable summary goes to stderr.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "distance/kernels.h"
#include "geom/line_fit.h"
#include "ingest/ingest_controller.h"
#include "obs/trace.h"
#include "oracle.h"
#include "reduction/representation_store.h"
#include "search/knn.h"
#include "serve/service.h"
#include "ts/synthetic_archive.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using sapla::Dataset;
using sapla::IndexKind;
using sapla::KnnResult;
using sapla::Method;
using sapla::SearchCounters;
using Clock = std::chrono::steady_clock;

// Shared by every workload.
constexpr size_t kM = 12;             // SAPLA coefficient budget
constexpr size_t kK = 16;             // neighbors per query
constexpr double kQueryNoise = 0.05;  // N(0, sigma) added to a corpus series
constexpr size_t kWarmupQueries = 16; // run, checked, not timed

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---------------------------------------------------------------------------
// Statistics and reporting

/// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }
double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  void PrintSummary() const {
    for (const Metric& m : metrics_)
      fprintf(stderr, "  %-30s %14.6g %s\n", m.name, m.value, m.unit);
  }

  /// Prints the summary to stderr and the result line to stdout.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    PrintSummary();
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double value = std::isfinite(m.value) ? m.value : 0.0;
      char buf[160];
      snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i == 0 ? "" : ", ", m.name, value, m.unit);
      line += buf;
    }
    line += "}}";
    fflush(stderr);
    printf("%s\n", line.c_str());
    fflush(stdout);
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// CPUs this process may run on (what `nproc` prints).
size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void Fatal(const std::string& what) {
  fprintf(stderr, "perfbench: %s\n", what.c_str());
  exit(1);
}

/// Queries are corpus series plus N(0, kQueryNoise) noise; fresh noise per
/// query, so no query repeats.
class QueryStream {
 public:
  QueryStream(const Dataset& corpus, sapla::Rng rng)
      : corpus_(corpus), rng_(rng) {}

  std::vector<double> Next() {
    std::vector<double> q =
        corpus_.series[rng_.UniformInt(corpus_.size())].values;
    for (double& v : q) v += rng_.Gaussian(0.0, kQueryNoise);
    return q;
  }

 private:
  const Dataset& corpus_;
  sapla::Rng rng_;
};

Dataset MakeCorpus(size_t dataset_id, size_t num_series, size_t length) {
  sapla::SyntheticOptions opt;
  opt.length = length;
  opt.num_series = num_series;
  return sapla::MakeSyntheticDataset(dataset_id, opt);
}

// Metrics every run reports with zero where the workload does not exercise
// the layer; the list (and its order) is BENCHMARK.json's per_layer list.
struct LayerMetrics {
  double reduce_us = 0, reduction_build_s = 0, index_build_s = 0;
  double node_bound_us = 0, nodes_visited = 0, node_prune_ratio = 0;
  double leaf_filter_us = 0, lb_evals = 0, leaf_prune_ratio = 0;
  double refine_us = 0, refines = 0, pruning_power = 0, refine_yield = 0;
  double knn_us = 0, scan_us = 0;
  double queue_us = 0, queue_p99_us = 0, exec_us = 0, batch_size = 0;
  double serve_vs_direct = 0;
  double insert_us = 0, delete_us = 0, seal_ms = 0, compact_ms = 0;
  double compactions = 0, rereduced_per_insert = 0, parts_per_query = 0;
  double memtable_us = 0, write_p50_us = 0, write_p99_us = 0;
  double trace_residual_frac = 0, trace_overhead_frac = 0;
  double writer_late_frac = 0;

  /// Fills the counter-derived metrics from per-query SearchCounters.
  void SetCounters(const std::vector<SearchCounters>& counters,
                   size_t corpus_size) {
    SearchCounters sum;
    for (const SearchCounters& c : counters) sum.Add(c);
    const double q = static_cast<double>(counters.size());
    nodes_visited = Ratio(static_cast<double>(sum.nodes_visited()), q);
    node_prune_ratio = Ratio(static_cast<double>(sum.nodes_pruned),
                             static_cast<double>(sum.nodes_visited() +
                                                 sum.nodes_pruned));
    lb_evals = Ratio(static_cast<double>(sum.lb_evaluations), q);
    leaf_prune_ratio = Ratio(static_cast<double>(sum.entries_pruned_leaf),
                             static_cast<double>(sum.lb_evaluations));
    refines = Ratio(static_cast<double>(sum.exact_evaluations), q);
    pruning_power = Ratio(refines, static_cast<double>(corpus_size));
    refine_yield = Ratio(static_cast<double>(kK) * q,
                         static_cast<double>(sum.exact_evaluations));
  }

  void AddTo(Report* r) const {
    r->Add("reduction.reduce_us", reduce_us, "us");
    r->Add("reduction.build_s", reduction_build_s, "s");
    r->Add("index.build_s", index_build_s, "s");
    r->Add("index.node_bound_us", node_bound_us, "us");
    r->Add("index.nodes_visited", nodes_visited, "count");
    r->Add("index.node_prune_ratio", node_prune_ratio, "ratio");
    r->Add("distance.leaf_filter_us", leaf_filter_us, "us");
    r->Add("distance.lb_evals", lb_evals, "count");
    r->Add("distance.leaf_prune_ratio", leaf_prune_ratio, "ratio");
    r->Add("search.refine_us", refine_us, "us");
    r->Add("search.refines", refines, "count");
    r->Add("search.pruning_power", pruning_power, "ratio");
    r->Add("search.refine_yield", refine_yield, "ratio");
    r->Add("search.knn_us", knn_us, "us");
    r->Add("scan.query_us", scan_us, "us");
    r->Add("serve.queue_us", queue_us, "us");
    r->Add("serve.queue_p99_us", queue_p99_us, "us");
    r->Add("serve.exec_us", exec_us, "us");
    r->Add("serve.batch_size", batch_size, "count");
    r->Add("serve.vs_direct", serve_vs_direct, "ratio");
    r->Add("ingest.insert_us", insert_us, "us");
    r->Add("ingest.delete_us", delete_us, "us");
    r->Add("ingest.seal_ms", seal_ms, "ms");
    r->Add("ingest.compact_ms", compact_ms, "ms");
    r->Add("ingest.compactions", compactions, "per_1000");
    r->Add("ingest.rereduced_per_insert", rereduced_per_insert, "ratio");
    r->Add("ingest.parts_per_query", parts_per_query, "count");
    r->Add("ingest.memtable_us", memtable_us, "us");
    r->Add("ingest.write_p50_us", write_p50_us, "us");
    r->Add("ingest.write_p99_us", write_p99_us, "us");
    r->Add("bench.trace_residual_frac", trace_residual_frac, "ratio");
    r->Add("bench.trace_overhead_frac", trace_overhead_frac, "ratio");
    r->Add("bench.writer_late_frac", writer_late_frac, "ratio");
  }
};

struct EndToEnd {
  /// Every set-up's duration; setup_s is their median.
  std::vector<double> setup_s;
  /// Each closed-loop client's query latencies, in the order measured.
  std::vector<std::vector<double>> client_us;
  double speedup_vs_scan = 0;

  void AddTo(Report* r) const {
    std::vector<double> all;
    for (const std::vector<double>& c : client_us)
      all.insert(all.end(), c.begin(), c.end());
    fprintf(stderr, "set-ups (s):");
    for (const double s : setup_s) fprintf(stderr, " %.4f", s);
    fprintf(stderr, "\nquery p99 (windowed, not a bounded metric): %.1f us\n",
            WindowedPercentile(all.size(), 0.99));
    r->Add("setup_s", Median(setup_s), "s");
    // Closed-loop throughput: clients / mean latency (Little's law).
    r->Add("query_qps",
           Ratio(static_cast<double>(client_us.size() * all.size()),
                 Sum(all) * 1e-6),
           "1/s");
    r->Add("query_p50_us", Median(all), "us");
    r->Add("query_p95_us", WindowedPercentile(all.size(), 0.95), "us");
    r->Add("speedup_vs_scan", speedup_vs_scan, "ratio");
    r->Add("peak_rss_mb", PeakRssMb(), "MiB");
  }

 private:
  /// Percentile p within successive time windows, median over the windows:
  /// one burst of host noise then moves one window, not the result. Each
  /// client's samples are cut into the same number of equal parts; a window
  /// holds at least 1000 samples, so even its p99 has ten beyond it.
  double WindowedPercentile(size_t samples, double p) const {
    const size_t windows = std::clamp<size_t>(samples / 1000, 1, 6);
    std::vector<double> per_window;
    for (size_t w = 0; w < windows; ++w) {
      std::vector<double> window;
      for (const std::vector<double>& c : client_us)
        window.insert(window.end(), c.begin() + c.size() * w / windows,
                      c.begin() + c.size() * (w + 1) / windows);
      per_window.push_back(Percentile(window, p));
    }
    return Median(per_window);
  }
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool split_valid = true;  // traced runs: decomposition reproduced Knn

  void Check(const std::string& why, const char* what) {
    ++attempted;
    if (why.empty()) return;
    if (failed < 5) fprintf(stderr, "perfbench: %s: %s\n", what, why.c_str());
    ++failed;
  }
};

// ---------------------------------------------------------------------------
// knn-1024-dbch: one closed-loop client, pool at 1 thread.

constexpr size_t kKnnDataset = 5;
constexpr size_t kKnnSeries = 2000;
constexpr size_t kKnnLength = 1024;
/// A run is this many rounds. Each builds a fresh index, then queries it for
/// its share of the run, so the set-ups spread over the whole run as the
/// queries do, and a slow stretch of the host moves some of them, not all.
constexpr size_t kKnnRounds = 6;

/// The library's top-k order: a max-heap on (distance, id), so equal
/// distances keep the smaller id (search/knn.cc).
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  void Offer(double dist, size_t id) {
    if (heap_.size() < k_) {
      heap_.emplace(dist, id);
    } else if (std::make_pair(dist, id) < heap_.top()) {
      heap_.pop();
      heap_.emplace(dist, id);
    }
  }

  double Bound() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.top().first;
  }

  Neighbors Sorted() {
    Neighbors v(heap_.size());
    for (size_t i = v.size(); i-- > 0;) {
      v[i] = heap_.top();
      heap_.pop();
    }
    return v;
  }

 private:
  size_t k_;
  std::priority_queue<std::pair<double, size_t>> heap_;
};

/// Cost of one steady_clock read in microseconds: the median over batches
/// of back-to-back reads.
double ClockReadUs() {
  std::vector<double> per_read;
  for (int batch = 0; batch < 31; ++batch) {
    constexpr int kReads = 1000;
    const auto t0 = Clock::now();
    Clock::time_point last = t0;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    per_read.push_back(Micros(last - t0) / kReads);
  }
  return Median(per_read);
}

/// One query's stage times, with the cost of the benchmark's own clock
/// reads taken out.
struct Split {
  double reduce_us = 0;       // Reducer::ReduceInto on the query
  double node_bound_us = 0;   // BestFirstSearch minus time in the callback
  double leaf_filter_us = 0;  // FilterDistanceView calls + query prefix sums
  double refine_us = 0;       // EuclideanDistance calls
  double total_us = 0;        // the whole decomposed query
};

/// Re-runs SimilarityIndex::Knn from public calls: the query's reduction,
/// then the backend's best-first traversal with a visit callback that does
/// what search/knn.cc's does (filter, refine, top-k, counters) and times
/// the filter and refine calls. Returns the answer and counters so the
/// caller can check them against Knn's.
KnnResult Decompose(const sapla::SimilarityIndex& index,
                    const sapla::Reducer& reducer,
                    const std::vector<double>& query, size_t k,
                    double clock_us, Split* split) {
  const Dataset& corpus = *index.dataset();
  const sapla::RepresentationStore& store = index.store();
  KnnResult result;
  SearchCounters& c = result.counters;

  const auto t0 = Clock::now();
  sapla::RepresentationStore query_store;
  reducer.ReduceInto(query, index.m(), &query_store);
  const auto t1 = Clock::now();
  const sapla::RepView query_rep = query_store.view(0);
  const sapla::PrefixFitter query_fitter(query);
  sapla::DistanceScratch scratch;
  TopK top(k);
  double filter_us = 0, refine_us = 0, callback_us = 0;
  uint64_t visits = 0, refines = 0;
  const auto visit = [&](size_t id, double bound) {
    const auto a = Clock::now();
    const double lb = sapla::FilterDistanceView(query_fitter, query_rep,
                                                store.view(id), &scratch);
    const auto b = Clock::now();
    filter_us += Micros(b - a);
    ++visits;
    ++c.lb_evaluations;
    if (lb <= bound) {
      const double exact =
          sapla::EuclideanDistance(query, corpus.series[id].values);
      refine_us += Micros(Clock::now() - b);
      ++refines;
      ++result.num_measured;
      ++c.exact_evaluations;
      if (exact > 0.0) {
        c.lb_tightness_sum += lb / exact;
        ++c.lb_tightness_count;
      }
      top.Offer(exact, id);
    } else {
      ++c.entries_pruned_leaf;
    }
    const double next = top.Bound();
    callback_us += Micros(Clock::now() - a);
    return next;
  };
  const auto t2 = Clock::now();
  index.backend()->BestFirstSearch(query, query_rep, visit, &c);
  const auto t3 = Clock::now();

  c.entries_pruned_node = corpus.size() - c.lb_evaluations;
  c.cascade_stage = c.exact_evaluations > 0  ? sapla::CascadeStage::kExact
                    : c.lb_evaluations > 0   ? sapla::CascadeStage::kLeafFilter
                                             : sapla::CascadeStage::kNodePrune;
  result.neighbors = top.Sorted();

  // A clock read costs clock_us; an interval holds half of each read at its
  // ends and all of each read inside it. Per visit the reads are a, b, the
  // refine end (refines only) and the callback end.
  const double v = static_cast<double>(visits);
  const double r = static_cast<double>(refines);
  const double filter = filter_us - v * clock_us;
  const double refine = refine_us - r * clock_us;
  const double callback = callback_us - (2 * v + r) * clock_us;
  const double traverse = Micros(t3 - t2) - (3 * v + r + 1) * clock_us;
  const double setup = Micros(t2 - t1) - clock_us;
  split->reduce_us = Micros(t1 - t0) - clock_us;
  split->node_bound_us = traverse - callback;
  split->leaf_filter_us = filter + setup;
  split->refine_us = refine;
  split->total_us = split->reduce_us + setup + traverse;
  return result;
}

int RunKnn(uint64_t seed, double seconds, bool trace,
           const std::string& trace_out) {
  sapla::SetNumThreads(1);
  const Dataset corpus = MakeCorpus(kKnnDataset, kKnnSeries, kKnnLength);
  const EarlyAbandonScan scan(corpus);
  const std::unique_ptr<sapla::Reducer> reducer =
      sapla::MakeReducer(Method::kSapla);
  const double clock_us = ClockReadUs();
  QueryStream stream(corpus, sapla::Rng(seed));
  sapla::IndexBackendOptions options;
  options.dbch_sound_bounds = true;  // exact DBCH, as shards and ingest run it

  EndToEnd e2e;
  e2e.client_us.resize(1);
  std::vector<double>& query_us = e2e.client_us[0];
  LayerMetrics layer;
  std::vector<double> reduce_s, insert_s;
  Outcome outcome;
  std::vector<double> scan_us, plain_us, traced_us;
  std::vector<Split> splits;
  std::vector<uint64_t> trace_ids;
  std::vector<SearchCounters> counters;

  std::unique_ptr<sapla::SimilarityIndex> index;
  size_t qi = 0;  // queries issued; its parity alternates index and scan
  const auto one_query = [&](bool measured) {
    const bool index_first = qi++ % 2 == 0;
    const std::vector<double> q = stream.Next();

    // Index and scan alternate which goes first, so neither is favoured by
    // the caches the other warmed.
    KnnResult result;
    Neighbors reference;
    double index_us = 0, this_scan_us = 0;
    const auto run_index = [&] {
      const auto t = Clock::now();
      result = index->Knn(q, kK);
      index_us = Micros(Clock::now() - t);
    };
    const auto run_scan = [&] {
      const auto t = Clock::now();
      reference = scan.Knn(q, kK);
      this_scan_us = Micros(Clock::now() - t);
    };

    if (!trace) {
      if (index_first) {
        run_index();
        run_scan();
      } else {
        run_scan();
        run_index();
      }
      outcome.Check(result.approximate ? "approximate answer"
                                       : CheckAnswer(result.neighbors,
                                                     reference),
                    "knn vs scan");
      if (!measured) return;
      query_us.push_back(index_us);
      scan_us.push_back(this_scan_us);
      return;
    }

    // Traced: the same query untraced (for the tracing overhead), then under
    // its own trace id with the library's spans on, then decomposed.
    double untraced_us = 0;
    const auto run_untraced = [&] {
      const auto t = Clock::now();
      index->Knn(q, kK);
      untraced_us = Micros(Clock::now() - t);
    };
    if (index_first) run_untraced();
    Split split;
    KnnResult decomposed;
    uint64_t trace_id = 0;
    sapla::obs::SetTraceEnabled(true);
    {
      const sapla::obs::TraceContext ctx = sapla::obs::MintTraceContext();
      trace_id = ctx.trace_id;
      sapla::obs::TraceContextScope scope(ctx);
      sapla::obs::ScopedSpan span("bench/query");
      run_index();
      {
        sapla::obs::ScopedSpan stage("bench/decompose");
        decomposed = Decompose(*index, *reducer, q, kK, clock_us, &split);
      }
      sapla::obs::ScopedSpan stage("bench/scan");
      run_scan();
    }
    sapla::obs::SetTraceEnabled(false);
    if (!index_first) run_untraced();

    outcome.Check(result.approximate ? "approximate answer"
                                     : CheckAnswer(result.neighbors, reference),
                  "knn vs scan");
    if (decomposed.neighbors != result.neighbors ||
        !(decomposed.counters == result.counters)) {
      if (outcome.split_valid)
        fprintf(stderr, "perfbench: decomposition differs from Knn\n");
      outcome.split_valid = false;
    }
    if (!measured) return;
    traced_us.push_back(index_us);
    plain_us.push_back(untraced_us);
    scan_us.push_back(this_scan_us);
    splits.push_back(split);
    trace_ids.push_back(trace_id);
    counters.push_back(result.counters);
  };

  for (size_t round = 0; round < kKnnRounds; ++round) {
    index.reset();
    index = std::make_unique<sapla::SimilarityIndex>(
        Method::kSapla, kM, IndexKind::kDbchTree, options);
    sapla::BuildInfo info;
    const auto t0 = Clock::now();
    const sapla::Status st = index->Build(corpus, &info);
    e2e.setup_s.push_back(Seconds(Clock::now() - t0));
    if (!st.ok()) Fatal("Build: " + st.ToString());
    reduce_s.push_back(info.reduce_wall_seconds);
    insert_s.push_back(info.insert_cpu_seconds);

    Clock::time_point start;
    for (size_t i = 0;; ++i) {
      if (i == kWarmupQueries) start = Clock::now();
      const bool measured = i >= kWarmupQueries;
      if (measured && Seconds(Clock::now() - start) >= seconds / kKnnRounds)
        break;
      one_query(measured);
    }
  }
  layer.reduction_build_s = Median(reduce_s);
  layer.index_build_s = Median(insert_s);

  Report report;
  if (!trace) {
    e2e.speedup_vs_scan = Ratio(Sum(scan_us), Sum(query_us));
    fprintf(stderr,
            "knn-1024-dbch seed %llu: %zu timed queries (the p99's sample "
            "count), %llu answers checked, %llu wrong\n",
            static_cast<unsigned long long>(seed), query_us.size(),
            static_cast<unsigned long long>(outcome.attempted),
            static_cast<unsigned long long>(outcome.failed));
    e2e.AddTo(&report);
    report.Print(outcome.failed == 0, outcome.attempted, outcome.failed);
    return 0;
  }

  // knn/query spans by trace id: the library's own view of each query.
  std::unordered_map<uint64_t, double> knn_span_us;
  for (const sapla::obs::TraceEvent& e : sapla::obs::CollectTrace())
    if (e.trace_id != 0 && std::strcmp(e.name, "knn/query") == 0)
      knn_span_us[e.trace_id] = static_cast<double>(e.dur_us);
  std::vector<double> reduce, node_bound, filter, refine, spans;
  double span_sum = 0, stage_sum = 0;
  for (size_t i = 0; i < splits.size(); ++i) {
    reduce.push_back(splits[i].reduce_us);
    node_bound.push_back(splits[i].node_bound_us);
    filter.push_back(splits[i].leaf_filter_us);
    refine.push_back(splits[i].refine_us);
    const auto it = knn_span_us.find(trace_ids[i]);
    if (it == knn_span_us.end()) continue;
    spans.push_back(it->second);
    span_sum += it->second;
    stage_sum += splits[i].total_us;
  }
  if (!trace_out.empty()) {
    const sapla::Status st = sapla::obs::WriteChromeTraceStatus(trace_out);
    if (!st.ok()) Fatal("trace export: " + st.ToString());
  }
  layer.reduce_us = Median(reduce);
  layer.node_bound_us = Median(node_bound);
  layer.leaf_filter_us = Median(filter);
  layer.refine_us = Median(refine);
  layer.SetCounters(counters, corpus.size());
  layer.knn_us = Median(spans);
  layer.scan_us = Median(scan_us);
  layer.trace_residual_frac = Ratio(span_sum - stage_sum, span_sum);
  layer.trace_overhead_frac = Ratio(Median(traced_us), Median(plain_us)) - 1.0;
  fprintf(stderr,
          "knn-1024-dbch seed %llu traced: %zu queries, %zu with a knn/query "
          "span, clock read %.4f us, split %s\n",
          static_cast<unsigned long long>(seed), splits.size(),
          spans.size(), clock_us,
          outcome.split_valid ? "matches Knn" : "INVALID");
  if (!outcome.split_valid) {
    // The stage numbers describe some other computation than Knn's: print
    // the verdict without them.
    Report invalid;
    invalid.Print(false, outcome.attempted, outcome.failed);
    return 0;
  }
  layer.AddTo(&report);
  report.Print(outcome.failed == 0, outcome.attempted, outcome.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// serve-ingest-256: a QueryService over a live IngestController.

constexpr size_t kServeDataset = 8;
constexpr size_t kServeSeries = 2000;
constexpr size_t kServeLength = 256;
constexpr size_t kServeSetupRepeats = 3;  // before the run, and again after
constexpr size_t kReaders = 3;
constexpr double kWriteRate = 200.0;      // mutations/s, open loop
constexpr double kPhaseSeconds = 0.05;    // service / direct phase length
constexpr double kLateUs = 1000.0;        // writer lateness threshold
constexpr size_t kPostRunChecks = 64;     // service vs brute force, quiesced
constexpr size_t kCompactedChecks = 1000; // controller vs scan, compacted
constexpr double kTraceWindowSeconds = 3.5;  // spans recorded, traced runs

/// One reader's measurements.
struct ReaderLog {
  // With the library's spans off; scan_us is the scan beside each direct
  // query.
  std::vector<double> service_us, direct_us, scan_us;
  std::vector<double> queue_us, exec_us;  // service responses
  std::vector<double> parts, memtable_us, knn_us;  // traced direct queries
  std::vector<SearchCounters> counters;            // direct queries
  uint64_t attempted = 0, failed = 0;
};

/// The writer's measurements.
struct WriterLog {
  std::vector<double> write_us;  // completion minus due time
  uint64_t late = 0;
  // Traced: call durations classified by the epoch change they caused.
  std::vector<double> insert_us, delete_us, seal_us, compact_us;
  double rereduced = 0;  // main-generation entries rebuilt by compactions
  uint64_t inserts = 0, compactions = 0;
  uint64_t attempted = 0, failed = 0;
};

/// The controller's generations are R-trees: the DBCH node bound prunes true
/// neighbors on this corpus (README.md, "Known wrong answers"), and the
/// R-tree's raw-range MINDIST is a lower bound by construction.
std::unique_ptr<sapla::IngestController> Preload(const Dataset& corpus) {
  auto ingest = std::make_unique<sapla::IngestController>(
      Method::kSapla, kM, IndexKind::kRTree, kServeLength,
      sapla::IngestOptions{});
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto id = ingest->Insert(corpus.series[i].values,
                                   corpus.series[i].label);
    if (!id.ok()) Fatal("preload insert: " + id.status().ToString());
    if (*id != i) Fatal("preload: unexpected id " + std::to_string(*id));
  }
  if (const sapla::Status st = ingest->Seal(); !st.ok())
    Fatal("preload seal: " + st.ToString());
  if (const sapla::Status st = ingest->Compact(); !st.ok())
    Fatal("preload compact: " + st.ToString());
  return ingest;
}

int RunServeIngest(uint64_t seed, double seconds, bool trace,
                   const std::string& trace_out) {
  sapla::SetNumThreads(Nproc());
  // The generator's first kServeSeries series are the preload, the rest the
  // writer's inserts: enough for every mutation to be one.
  const size_t max_mutations =
      static_cast<size_t>(std::ceil(kWriteRate * seconds)) + 1;
  Dataset corpus =
      MakeCorpus(kServeDataset, kServeSeries + max_mutations, kServeLength);
  std::vector<sapla::TimeSeries> unseen(corpus.series.begin() + kServeSeries,
                                        corpus.series.end());
  corpus.series.resize(kServeSeries);

  EndToEnd e2e;
  std::unique_ptr<sapla::IngestController> ingest;
  for (size_t rep = 0; rep < kServeSetupRepeats; ++rep) {
    ingest.reset();
    const auto t0 = Clock::now();
    ingest = Preload(corpus);
    e2e.setup_s.push_back(Seconds(Clock::now() - t0));
  }

  // Streams: one per reader, one for the order of the writer's inserts, one
  // for its delete choices, one for the post-run queries.
  sapla::Rng root(seed);
  std::vector<sapla::Rng> reader_rngs;
  for (size_t r = 0; r < kReaders; ++r) reader_rngs.push_back(root.Fork());
  sapla::Rng insert_rng = root.Fork();
  sapla::Rng delete_rng = root.Fork();
  sapla::Rng post_rng = root.Fork();

  // Every series the run can insert exists before it starts, indexed by the
  // global id the controller assigns: preload ids 0..N-1, then the writer's
  // inserts in a seeded order. Readers recompute every returned distance
  // from it.
  for (size_t i = unseen.size(); i > 1; --i)
    std::swap(unseen[i - 1], unseen[insert_rng.UniformInt(i)]);
  std::vector<std::vector<double>> series;
  series.reserve(corpus.size() + unseen.size());
  for (const sapla::TimeSeries& ts : corpus.series) series.push_back(ts.values);
  for (sapla::TimeSeries& ts : unseen) series.push_back(std::move(ts.values));

  sapla::ServeOptions serve_options;
  serve_options.cache_capacity = 0;
  auto service = std::make_unique<sapla::QueryService>(*ingest, serve_options);
  // The scan timed beside each direct query. It covers the preload, which
  // has the live set's size and distribution, so speedup_vs_scan samples
  // the whole run, not one stretch after it.
  const EarlyAbandonScan preload_scan(corpus);

  if (trace) sapla::obs::SetTraceEnabled(true);
  std::vector<ReaderLog> readers(kReaders);
  WriterLog writer;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto phase_is_service = [&](Clock::time_point t) {
    return static_cast<uint64_t>(Seconds(t - start) / kPhaseSeconds) % 2 == 0;
  };
  // Traced runs record the library's spans for the first kTraceWindowSeconds.
  const Clock::time_point spans_off =
      trace ? start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kTraceWindowSeconds))
            : start;

  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ReaderLog& log = readers[r];
      QueryStream stream(corpus, reader_rngs[r]);
      size_t direct_queries = 0;  // its parity alternates index and scan
      while (true) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        const bool via_service = phase_is_service(t0);
        const bool spans_on = t0 < spans_off;
        const std::vector<double> q = stream.Next();
        ++log.attempted;
        std::string why;
        if (via_service) {
          const auto t = Clock::now();
          const sapla::ServeResponse resp = service->Knn(q, kK);
          const double us = Micros(Clock::now() - t);
          if (!resp.status.ok()) {
            why = "service status " + resp.status.ToString();
          } else if (resp.approximate || resp.result.approximate) {
            why = "approximate service answer";
          } else {
            why = CheckAgainstSeries(resp.result.neighbors, kK, q, series);
          }
          if (!spans_on) log.service_us.push_back(us);
          log.queue_us.push_back(static_cast<double>(resp.queue_us));
          log.exec_us.push_back(
              static_cast<double>(resp.total_us - resp.queue_us));
        } else {
          double scan_us = 0;
          const auto run_scan = [&] {
            const auto t = Clock::now();
            preload_scan.Knn(q, kK);
            scan_us = Micros(Clock::now() - t);
          };
          const bool scan_first = direct_queries++ % 2 == 1;
          if (scan_first) run_scan();
          const auto t = Clock::now();
          const KnnResult result = ingest->Knn(q, kK);
          const double us = Micros(Clock::now() - t);
          if (!scan_first) run_scan();
          if (!spans_on) {
            log.direct_us.push_back(us);
            log.scan_us.push_back(scan_us);
          }
          why = result.approximate
                    ? "approximate direct answer"
                    : CheckAgainstSeries(result.neighbors, kK, q, series);
          log.counters.push_back(result.counters);
          if (trace) {
            // The stage parts come from a second, untimed call, so the timed
            // call is the one the service path makes too.
            sapla::obs::QueryExplain explain;
            ingest->KnnExplain(q, kK, &explain);
            log.parts.push_back(static_cast<double>(explain.parts.size()));
            log.knn_us.push_back(static_cast<double>(explain.total_us));
            for (const sapla::obs::ShardExplain& p : explain.parts)
              if (p.part == "memtable")
                log.memtable_us.push_back(static_cast<double>(p.dur_us));
          }
        }
        if (!why.empty()) {
          if (log.failed < 3)
            fprintf(stderr, "perfbench: reader %zu: %s\n", r, why.c_str());
          ++log.failed;
        }
      }
    });
  }

  // Open-loop writer: mutation j is due at start + j / rate; inserts and
  // deletes of random live ids alternate, so the corpus stays near its
  // preload size. Each write is timed from when it was due.
  threads.emplace_back([&] {
    std::vector<uint64_t> live;
    for (uint64_t id = 0; id < corpus.size(); ++id) live.push_back(id);
    size_t next_insert = corpus.size();
    for (size_t j = 0;; ++j) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(j / kWriteRate));
      if (due >= end || j >= max_mutations) break;
      std::this_thread::sleep_until(due);
      sapla::IngestController::EpochStats before;
      if (trace) before = ingest->GetEpochStats();
      const Clock::time_point issued = Clock::now();
      ++writer.attempted;
      std::string why;
      const bool insert = j % 2 == 0 || live.empty();
      if (insert) {
        const auto id = ingest->Insert(series[next_insert]);
        if (!id.ok()) {
          why = "insert: " + id.status().ToString();
        } else if (*id != next_insert) {
          why = "insert got id " + std::to_string(*id) + ", expected " +
                std::to_string(next_insert);
        } else {
          live.push_back(*id);
        }
        ++next_insert;
      } else {
        const size_t pos = delete_rng.UniformInt(live.size());
        const sapla::Status st = ingest->Delete(live[pos]);
        if (!st.ok()) why = "delete: " + st.ToString();
        live[pos] = live.back();
        live.pop_back();
      }
      const Clock::time_point done = Clock::now();
      writer.write_us.push_back(Micros(done - due));
      if (Micros(issued - due) > kLateUs) ++writer.late;
      if (!why.empty()) {
        if (writer.failed < 3) fprintf(stderr, "perfbench: %s\n", why.c_str());
        ++writer.failed;
      }
      if (!trace) continue;
      const sapla::IngestController::EpochStats after = ingest->GetEpochStats();
      const double call_us = Micros(done - issued);
      if (!insert) {
        writer.delete_us.push_back(call_us);
        continue;
      }
      ++writer.inserts;
      if (after.minor_generations < before.minor_generations) {
        writer.compact_us.push_back(call_us);
        writer.rereduced += static_cast<double>(after.main_entries);
        ++writer.compactions;
      } else if (after.minor_generations > before.minor_generations) {
        writer.seal_us.push_back(call_us);
      } else {
        writer.insert_us.push_back(call_us);
      }
    }
  });
  if (trace) {
    // Spans cover the first compaction cycle only, which bounds the Chrome
    // trace; the per-layer metrics below do not come from spans.
    std::this_thread::sleep_until(std::min(end, spans_off));
    sapla::obs::SetTraceEnabled(false);
  }
  for (std::thread& t : threads) t.join();
  const sapla::ServeMetricsSnapshot serve_snapshot = service->MetricsSnapshot();

  Outcome outcome;
  std::vector<double> service_us, direct_us, direct_scan_us, queue_us,
      exec_us, parts, memtable_us, knn_us;
  std::vector<SearchCounters> counters;
  for (const ReaderLog& log : readers) {
    outcome.attempted += log.attempted;
    outcome.failed += log.failed;
    service_us.insert(service_us.end(), log.service_us.begin(),
                      log.service_us.end());
    direct_us.insert(direct_us.end(), log.direct_us.begin(),
                     log.direct_us.end());
    direct_scan_us.insert(direct_scan_us.end(), log.scan_us.begin(),
                          log.scan_us.end());
    queue_us.insert(queue_us.end(), log.queue_us.begin(), log.queue_us.end());
    exec_us.insert(exec_us.end(), log.exec_us.begin(), log.exec_us.end());
    parts.insert(parts.end(), log.parts.begin(), log.parts.end());
    memtable_us.insert(memtable_us.end(), log.memtable_us.begin(),
                       log.memtable_us.end());
    knn_us.insert(knn_us.end(), log.knn_us.begin(), log.knn_us.end());
    counters.insert(counters.end(), log.counters.begin(), log.counters.end());
  }
  outcome.attempted += writer.attempted;
  outcome.failed += writer.failed;

  // Quiesced: answers through the service must equal brute force over the
  // visible set, with dense positions mapped to global ids.
  const Dataset visible = ingest->VisibleDataset();
  const std::vector<uint64_t> visible_ids = ingest->VisibleIds();
  const EarlyAbandonScan scan(visible);
  const auto to_global = [&](Neighbors n) {
    for (auto& [dist, id] : n) id = static_cast<size_t>(visible_ids[id]);
    return n;
  };
  QueryStream post(corpus, post_rng);
  for (size_t i = 0; i < kPostRunChecks; ++i) {
    const std::vector<double> q = post.Next();
    const sapla::ServeResponse resp = service->Knn(q, kK);
    outcome.Check(resp.status.ok()
                      ? CheckAnswer(resp.result.neighbors,
                                    to_global(scan.Knn(q, kK)))
                      : "service status " + resp.status.ToString(),
                  "post-run service vs brute force");
  }
  service.reset();

  // Compacted: the controller against the scan of the same visible set. The
  // scan's time here, on a quiet machine, is the traced run's scan.query_us.
  if (const sapla::Status st = ingest->Seal(); !st.ok())
    Fatal("post-run seal: " + st.ToString());
  if (const sapla::Status st = ingest->Compact(); !st.ok())
    Fatal("post-run compact: " + st.ToString());
  const std::unique_ptr<sapla::Reducer> reducer =
      sapla::MakeReducer(Method::kSapla);
  std::vector<double> scan_us, reduce_us;
  for (size_t i = 0; i < kCompactedChecks; ++i) {
    const std::vector<double> q = post.Next();
    const KnnResult result = ingest->Knn(q, kK);
    const auto t = Clock::now();
    const Neighbors reference = scan.Knn(q, kK);
    scan_us.push_back(Micros(Clock::now() - t));
    outcome.Check(CheckAnswer(result.neighbors, to_global(reference)),
                  "compacted controller vs scan");
    if (trace) {
      sapla::RepresentationStore store;
      const auto t = Clock::now();
      reducer->ReduceInto(q, kM, &store);
      reduce_us.push_back(Micros(Clock::now() - t));
    }
  }

  // More set-ups after the run, so that setup_s spans it.
  ingest.reset();
  for (size_t rep = 0; rep < kServeSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    const std::unique_ptr<sapla::IngestController> fresh = Preload(corpus);
    e2e.setup_s.push_back(Seconds(Clock::now() - t0));
  }

  for (const ReaderLog& log : readers) e2e.client_us.push_back(log.service_us);
  e2e.speedup_vs_scan = Ratio(Sum(direct_scan_us), Sum(direct_us));
  const double service_qps = Ratio(kReaders * static_cast<double>(service_us.size()),
                                   Sum(service_us) * 1e-6);
  const double direct_qps = Ratio(kReaders * static_cast<double>(direct_us.size()),
                                  Sum(direct_us) * 1e-6);
  fprintf(stderr,
          "serve-ingest-256 seed %llu%s: %zu service queries (the p99's "
          "sample count), %zu direct, %zu writes (%llu late), %llu answers "
          "and writes checked, %llu wrong; %zu visible at the end\n",
          static_cast<unsigned long long>(seed), trace ? " traced" : "",
          service_us.size(), direct_us.size(),
          writer.write_us.size(), static_cast<unsigned long long>(writer.late),
          static_cast<unsigned long long>(outcome.attempted),
          static_cast<unsigned long long>(outcome.failed), visible.size());

  Report report;
  if (!trace) {
    e2e.AddTo(&report);
    report.Print(outcome.failed == 0, outcome.attempted, outcome.failed);
    return 0;
  }
  if (!trace_out.empty()) {
    const sapla::Status st = sapla::obs::WriteChromeTraceStatus(trace_out);
    if (!st.ok()) Fatal("trace export: " + st.ToString());
  }
  LayerMetrics layer;
  layer.reduce_us = Median(reduce_us);
  layer.SetCounters(counters, kServeSeries);
  layer.knn_us = Median(knn_us);
  layer.scan_us = Median(scan_us);
  layer.queue_us = Median(queue_us);
  layer.queue_p99_us = Percentile(queue_us, 0.99);
  layer.exec_us = Median(exec_us);
  layer.batch_size = serve_snapshot.batch_size.mean;
  layer.serve_vs_direct = Ratio(service_qps, direct_qps);
  layer.insert_us = Median(writer.insert_us);
  layer.delete_us = Median(writer.delete_us);
  layer.seal_ms = Median(writer.seal_us) / 1000.0;
  layer.compact_ms = Median(writer.compact_us) / 1000.0;
  layer.compactions = Ratio(1000.0 * static_cast<double>(writer.compactions),
                            static_cast<double>(writer.write_us.size()));
  layer.rereduced_per_insert =
      Ratio(writer.rereduced, static_cast<double>(writer.inserts));
  layer.parts_per_query = Mean(parts);
  layer.memtable_us = Median(memtable_us);
  layer.write_p50_us = Median(writer.write_us);
  layer.write_p99_us = Percentile(writer.write_us, 0.99);
  layer.writer_late_frac =
      Ratio(static_cast<double>(writer.late),
            static_cast<double>(writer.write_us.size()));
  layer.AddTo(&report);
  report.Print(outcome.failed == 0, outcome.attempted, outcome.failed);
  return 0;
}

// ---------------------------------------------------------------------------

[[noreturn]] void Usage() {
  fprintf(stderr,
          "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
          "[--trace-out FILE]\n"
          "workloads: knn-1024-dbch serve-ingest-256\n");
  exit(2);
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage();
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* rest = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &rest, 10);
      have_seed = !value.empty() && *rest == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &rest);
      if (value.empty() || *rest != '\0' || !(seconds > 0)) Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage();
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage();
    }
  }
  if (workload.empty() || !have_seed || seconds <= 0 || trace < 0) Usage();
  if (workload == "knn-1024-dbch")
    return RunKnn(seed, seconds, trace == 1, trace_out);
  if (workload == "serve-ingest-256")
    return RunServeIngest(seed, seconds, trace == 1, trace_out);
  Usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
