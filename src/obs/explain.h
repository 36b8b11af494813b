#ifndef SAPLA_OBS_EXPLAIN_H_
#define SAPLA_OBS_EXPLAIN_H_

// Per-request explain records and the tail-sampled slow-query log.
//
// A QueryExplain is the structured answer to "where did this one request's
// time and pruning go": per-part (shard / generation / memtable) timings
// and SearchCounters, per-stage (scatter, merge, ...) timings, the ingest
// epoch the query saw, and the whole-request counters. Every SearchIndex
// can fill one via KnnExplain (search/search_index.h); ShardedIndex and
// IngestController fill the full breakdown.
//
// Invariant carried by the sharded/ingest paths and asserted in tests: the
// per-part counters in `parts` sum exactly to `counters` — the explain is
// the request's SearchCounters, attributed, not a second measurement.
//
// The slow-query log is the tail-sampling consumer: QueryService builds a
// SlowQueryRecord for every request that crosses a latency or counter
// threshold (serve/service.h options) and appends its JSON rendering to a
// bounded in-memory ring. docs/OBSERVABILITY.md documents the record
// schema; CI validates a live record with `python3 -m json.tool`.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/counters.h"

namespace sapla {
namespace obs {

/// One named stage of a request's execution (e.g. "scatter", "merge",
/// "memtable") and its wall time.
struct StageExplain {
  std::string stage;
  uint64_t dur_us = 0;
};

/// One part of the corpus the request touched: a shard of a ShardedIndex,
/// or a generation (main / minorN / memtable) of an IngestController.
struct ShardExplain {
  std::string part;
  /// ShardHealth as an int (0 healthy, 1 degraded = lower-bound-only,
  /// 2 unhealthy = excluded from the scatter).
  int health = 0;
  uint64_t dur_us = 0;
  /// Neighbors this part contributed: a shard's candidates before the
  /// merge truncated to k; an ingest generation's neighbors in the answer
  /// (a query's generations fill one shared heap).
  size_t results = 0;
  SearchCounters counters;
};

/// "healthy" / "degraded" / "unhealthy" for ShardExplain::health.
const char* ExplainHealthName(int health);

/// \brief Per-stage / per-part breakdown of one executed query.
struct QueryExplain {
  /// Trace id of the request (0 when unsampled); joins the record to its
  /// span tree in a Chrome trace export.
  uint64_t trace_id = 0;
  /// Wall time inside the index (excludes queueing).
  uint64_t total_us = 0;
  /// Ingest epoch sequence the query pinned; 0 for a static corpus.
  uint64_t epoch_seq = 0;
  bool approximate = false;
  /// Whole-request counters. Equals the sum over `parts` (asserted in
  /// tests/explain_test.cc) wherever the index fills the breakdown.
  SearchCounters counters;
  std::vector<StageExplain> stages;
  std::vector<ShardExplain> parts;
};

/// JSON object for one QueryExplain (embedded in slow-query records and
/// printed by `sapla_cli explain --json`).
std::string QueryExplainToJson(const QueryExplain& explain);

/// \brief One slow-query log entry: request identity, outcome and the
/// explain breakdown.
struct SlowQueryRecord {
  uint64_t trace_id = 0;
  std::string op;       ///< "knn" | "range"
  size_t k = 0;
  double radius = 0.0;
  std::string status;   ///< status code name, e.g. "ok"
  bool cache_hit = false;
  bool approximate = false;
  /// The request was answered by a degradation path (inline lower-bound
  /// answer or deadline-expired approximate answer).
  bool degraded = false;
  /// Attempt annotations propagated by the retry layer (TraceContext
  /// flags): this submission was a retry / a speculative hedge duplicate.
  bool retry = false;
  bool hedge = false;
  uint64_t queue_us = 0;
  uint64_t exec_us = 0;
  uint64_t total_us = 0;
  QueryExplain explain;
};

/// One JSON object per record (docs/OBSERVABILITY.md has the schema).
std::string SlowQueryRecordToJson(const SlowQueryRecord& record);

/// \brief Bounded, thread-safe ring of rendered slow-query records.
///
/// Oldest records are evicted once `capacity` is reached;
/// `total_logged()` keeps counting so eviction is visible. Records are
/// stored rendered (JSON strings) — the log never retains pointers into
/// request state.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 128);

  void Add(std::string json_record);

  /// Oldest-first copy of the retained records.
  std::vector<std::string> Records() const;

  /// Records ever added (including evicted ones).
  uint64_t total_logged() const;

  size_t capacity() const { return capacity_; }

  /// Writes the retained records as one JSON array (staged + renamed, like
  /// WriteChromeTrace). Returns false on I/O failure.
  bool WriteJsonArray(const std::string& path) const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<std::string> records_;
  uint64_t total_ = 0;
};

}  // namespace obs
}  // namespace sapla

#endif  // SAPLA_OBS_EXPLAIN_H_
