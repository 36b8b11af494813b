// Throughput/latency of the embedded query service vs one-request-per-call.
//
// Builds one index, then drives it with `--clients` closed-loop threads
// drawing queries zipfian-skewed from a fixed pool (so the result cache has
// something to hit). These serving configurations are swept by default:
//
//   direct        every client calls SimilarityIndex::Knn itself — the
//                 baseline the service must beat
//   blocking      the service at default options, clients calling the
//                 blocking QueryService::Knn, which runs inline on the
//                 client's thread whenever the queue is empty and an
//                 execution thread is free
//   blocking 2x clients
//                 the same with twice the clients, so they outnumber the
//                 service's execution threads (at --threads=T <= clients)
//                 and part of the load takes the queue
//   max_batch=1   the service with micro-batching disabled (pure queue +
//                 scheduler overhead, one request per KnnBatch call)
//   max_batch>=8  real micro-batching; each flush fans one KnnBatch out
//                 over the pool
//
// The max_batch rows submit with SubmitKnn(...).get(), which always goes
// through the queue, so they keep measuring the scheduler and batching.
//
// For each row the table reports sustained QPS, that QPS as a fraction of
// the direct row's (QPSvsDirect, taken from one run so host speed cancels
// out), p50/p95/p99 total latency (admission -> response), mean flushed
// batch size, and the cache hit rate.
// `--json` (default BENCH_serve.json) emits the same table machine-readable
// so CI can track the serving perf trajectory across PRs, and
// `--metrics-json=FILE` dumps the last service configuration's full metrics
// snapshot (including the aggregated search counters) through the shared
// obs/metrics.h JSON writer.
//
// `--shards=1,2,4` appends a second sweep: the same workload against a
// ShardedIndex at each shard count (max_batch=8, answers bit-identical at
// every count by the merge contract), emitted to `--shard-json` (default
// BENCH_shard.json) so CI can track how partitioning moves the
// throughput/latency needle.
//
//   bench_serve_throughput [--series=2000] [--n=256] [--m=16] [--k=16]
//                          [--clients=8] [--requests=400] [--pool=64]
//                          [--zipf=0.99] [--batches=1,8,32] [--cache=512]
//                          [--method=SAPLA] [--tree=dbch] [--threads=0]
//                          [--shards=1,2,4] [--shard-json=BENCH_shard.json]
//                          [--csv=DIR] [--json=BENCH_serve.json]
//                          [--metrics-json=FILE]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "search/knn.h"
#include "search/sharded_index.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "ts/synthetic_archive.h"
#include "util/histogram.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace sapla {
namespace {

struct Config {
  size_t series = 2000;
  size_t n = 256;
  size_t m = 16;           // reduction budget
  size_t k = 16;           // neighbors per query
  size_t clients = 8;      // closed-loop client threads
  size_t requests = 400;   // requests per client
  size_t pool = 64;        // distinct queries
  double zipf = 0.99;      // query popularity skew
  size_t cache = 512;      // result-cache capacity (entries)
  size_t threads = 0;      // batch fan-out (0 = hardware)
  std::vector<size_t> batches = {1, 8, 32};
  std::vector<size_t> shards;  // non-empty enables the shard sweep
  Method method = Method::kSapla;
  IndexKind kind = IndexKind::kDbchTree;
  std::string csv_dir;
  std::string json_path = "BENCH_serve.json";
  std::string shard_json_path = "BENCH_shard.json";
  std::string metrics_json_path;
};

[[noreturn]] void Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--series=S] [--n=N] [--m=M] [--k=K] [--clients=C]\n"
          "          [--requests=R] [--pool=P] [--zipf=Z] [--batches=1,8,32]\n"
          "          [--cache=E] [--method=SAPLA] [--tree=dbch|rtree]\n"
          "          [--threads=T] [--shards=1,2,4] [--shard-json=FILE]\n"
          "          [--csv=DIR] [--json=FILE] [--metrics-json=FILE]\n",
          argv0);
  exit(2);
}

Config ParseFlags(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) Usage(argv[0]);
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    auto num = [&] { return std::strtoull(value.c_str(), nullptr, 10); };
    if (key == "series") {
      config.series = num();
    } else if (key == "n") {
      config.n = num();
    } else if (key == "m") {
      config.m = num();
    } else if (key == "k") {
      config.k = num();
    } else if (key == "clients") {
      config.clients = num();
    } else if (key == "requests") {
      config.requests = num();
    } else if (key == "pool") {
      config.pool = num();
    } else if (key == "zipf") {
      config.zipf = std::strtod(value.c_str(), nullptr);
    } else if (key == "cache") {
      config.cache = num();
    } else if (key == "threads") {
      config.threads = num();
    } else if (key == "batches" || key == "shards") {
      std::vector<size_t>& list =
          key == "batches" ? config.batches : config.shards;
      list.clear();
      size_t start = 0;
      while (start <= value.size()) {
        const size_t comma = value.find(',', start);
        const std::string tok = value.substr(
            start, comma == std::string::npos ? comma : comma - start);
        list.push_back(std::strtoull(tok.c_str(), nullptr, 10));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (key == "method") {
      bool found = false;
      for (const Method m : AllMethods())
        if (MethodName(m) == value) {
          config.method = m;
          found = true;
        }
      if (!found) Usage(argv[0]);
    } else if (key == "tree") {
      if (value == "dbch") {
        config.kind = IndexKind::kDbchTree;
      } else if (value == "rtree") {
        config.kind = IndexKind::kRTree;
      } else {
        Usage(argv[0]);
      }
    } else if (key == "csv") {
      config.csv_dir = value;
    } else if (key == "json") {
      config.json_path = value;
    } else if (key == "shard-json") {
      config.shard_json_path = value;
    } else if (key == "metrics-json") {
      config.metrics_json_path = value;
    } else {
      Usage(argv[0]);
    }
  }
  return config;
}

/// The fixed query pool: dataset series perturbed with mild noise so no
/// query is a stored series but every repeat is byte-identical (cacheable).
std::vector<std::vector<double>> MakeQueryPool(const Dataset& ds,
                                               const Config& config) {
  Rng rng(0x5EEDF00D);
  std::vector<std::vector<double>> pool;
  pool.reserve(config.pool);
  for (size_t q = 0; q < config.pool; ++q) {
    std::vector<double> query = ds.series[rng.UniformInt(ds.size())].values;
    for (double& v : query) v += rng.Gaussian(0.0, 0.05);
    pool.push_back(std::move(query));
  }
  return pool;
}

struct RunStats {
  double wall_seconds = 0.0;
  size_t requests = 0;        // completed across all clients
  HistogramSnapshot latency;  // total_us per request
  double mean_batch = 0.0;
  double cache_hit_rate = 0.0;
  uint64_t errors = 0;
  ServeMetricsSnapshot snapshot;  // full registry (service modes only)
};

/// Baseline: every client thread calls the index directly.
RunStats RunDirect(const SearchIndex& index,
                   const std::vector<std::vector<double>>& pool,
                   const Config& config) {
  const ZipfSampler zipf(pool.size(), config.zipf);
  Histogram latency;
  WallTimer wall;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xC11E57 + c);
      for (size_t r = 0; r < config.requests; ++r) {
        WallTimer t;
        const KnnResult result = index.Knn(pool[zipf.Sample(rng)], config.k);
        (void)result;
        latency.Record(static_cast<uint64_t>(t.Seconds() * 1e6));
      }
    });
  }
  for (auto& t : clients) t.join();
  RunStats stats;
  stats.wall_seconds = wall.Seconds();
  stats.requests = config.clients * config.requests;
  stats.latency = SnapshotHistogram(latency);
  return stats;
}

/// The service under one max_batch setting, `num_clients` closed-loop
/// clients. `blocking` clients call QueryService::Knn (inline when idle);
/// the others submit through the queue with SubmitKnn(...).get().
RunStats RunService(const SearchIndex& index,
                    const std::vector<std::vector<double>>& pool,
                    const Config& config, size_t max_batch, bool blocking,
                    size_t num_clients) {
  ServeOptions options;
  options.max_batch = max_batch;
  options.max_delay_us = 200;
  options.queue_capacity = num_clients * 4;
  options.cache_capacity = config.cache;
  options.num_threads = config.threads;
  QueryService service(index, options);

  const ZipfSampler zipf(pool.size(), config.zipf);
  std::atomic<uint64_t> errors{0};
  WallTimer wall;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xC11E57 + c);  // same streams as the direct baseline
      for (size_t r = 0; r < config.requests; ++r) {
        const std::vector<double>& query = pool[zipf.Sample(rng)];
        const ServeResponse response =
            blocking ? service.Knn(query, config.k)
                     : service.SubmitKnn(query, config.k).get();
        if (!response.status.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_seconds = wall.Seconds();
  service.Stop();

  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  RunStats stats;
  stats.wall_seconds = wall_seconds;
  stats.requests = num_clients * config.requests;
  stats.latency = snap.total_us;
  stats.mean_batch = snap.batch_size.mean;
  stats.cache_hit_rate = snap.CacheHitRate();
  stats.errors = errors.load();
  stats.snapshot = snap;
  return stats;
}

int Run(int argc, char** argv) {
  const Config config = ParseFlags(argc, argv);
  SetNumThreads(config.threads);

  SyntheticOptions opt;
  opt.length = config.n;
  opt.num_series = config.series;
  const Dataset ds = MakeSyntheticDataset(0, opt);
  const std::vector<std::vector<double>> pool = MakeQueryPool(ds, config);

  SimilarityIndex index(config.method, config.m, config.kind);
  if (Status s = index.Build(ds); !s.ok()) {
    fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }

  Table t("Serve throughput: " + std::to_string(config.clients) +
          " closed-loop clients x " + std::to_string(config.requests) +
          " x " + std::to_string(config.k) + "-NN, " +
          std::to_string(ds.size()) + " series, pool " +
          std::to_string(config.pool) + ", zipf " +
          Table::Num(config.zipf, 3));
  t.SetHeader({"Mode", "QPS", "QPSvsDirect", "P50us", "P95us", "P99us",
               "MeanBatch", "CacheHitRate", "Errors"});

  const auto qps = [](const RunStats& s) {
    return s.wall_seconds > 0.0 ? s.requests / s.wall_seconds : 0.0;
  };
  const RunStats direct = RunDirect(index, pool, config);
  auto add_row = [&](const std::string& mode, const RunStats& s) {
    t.AddRow({mode, Table::Num(qps(s), 5),
              Table::Num(qps(direct) > 0.0 ? qps(s) / qps(direct) : 0.0, 3),
              Table::Num(s.latency.p50, 5), Table::Num(s.latency.p95, 5),
              Table::Num(s.latency.p99, 5), Table::Num(s.mean_batch, 3),
              Table::Num(s.cache_hit_rate, 3), std::to_string(s.errors)});
  };

  add_row("direct", direct);
  const size_t default_batch = ServeOptions().max_batch;
  add_row("blocking", RunService(index, pool, config, default_batch,
                                 /*blocking=*/true, config.clients));
  add_row("blocking 2x clients",
          RunService(index, pool, config, default_batch, /*blocking=*/true,
                     2 * config.clients));
  RunStats last_service;
  for (const size_t max_batch : config.batches) {
    last_service = RunService(index, pool, config, max_batch,
                              /*blocking=*/false, config.clients);
    add_row("max_batch=" + std::to_string(max_batch), last_service);
  }

  t.Print(config.csv_dir.empty() ? ""
                                 : config.csv_dir + "/serve_throughput.csv");
  if (!config.json_path.empty() && !t.WriteJson(config.json_path)) {
    fprintf(stderr, "could not write %s\n", config.json_path.c_str());
    return 1;
  }
  if (!config.metrics_json_path.empty() &&
      !WriteMetricsJson(last_service.snapshot, config.metrics_json_path)) {
    fprintf(stderr, "could not write %s\n", config.metrics_json_path.c_str());
    return 1;
  }

  if (!config.shards.empty()) {
    Table st("Shard sweep: same workload, ShardedIndex at max_batch=8");
    st.SetHeader({"Shards", "QPS", "P50us", "P95us", "P99us", "MeanBatch",
                  "CacheHitRate", "Errors"});
    for (const size_t count : config.shards) {
      ShardedIndex::Options shard_opt;
      shard_opt.num_shards = count;
      ShardedIndex sharded(config.method, config.m, config.kind, shard_opt);
      if (Status s = sharded.Build(ds); !s.ok()) {
        fprintf(stderr, "sharded build (%zu) failed: %s\n", count,
                s.ToString().c_str());
        return 1;
      }
      const RunStats s = RunService(sharded, pool, config, /*max_batch=*/8,
                                    /*blocking=*/false, config.clients);
      st.AddRow({std::to_string(sharded.num_shards()), Table::Num(qps(s), 5),
                 Table::Num(s.latency.p50, 5), Table::Num(s.latency.p95, 5),
                 Table::Num(s.latency.p99, 5), Table::Num(s.mean_batch, 3),
                 Table::Num(s.cache_hit_rate, 3), std::to_string(s.errors)});
    }
    st.Print(config.csv_dir.empty() ? ""
                                    : config.csv_dir + "/serve_shards.csv");
    if (!config.shard_json_path.empty() &&
        !st.WriteJson(config.shard_json_path)) {
      fprintf(stderr, "could not write %s\n", config.shard_json_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace sapla

int main(int argc, char** argv) { return sapla::Run(argc, argv); }
