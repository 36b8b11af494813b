#ifndef SAPLA_PERFBENCH_ORACLE_H_
#define SAPLA_PERFBENCH_ORACLE_H_

// The benchmark's own ground truth for exact k-NN.
//
// Everything here is independent of the library's search code: it reads raw
// series only and uses no index, reduction or lower bound.
//
//   BruteForceKnn     the oracle: every distance in full, then sorted.
//   EarlyAbandonScan  the scan the index is timed against: 16-wide blocks,
//                     a row is dropped once its partial sum passes the
//                     current k-th best. It returns exactly the oracle's
//                     answers (oracle_test.cc).
//   CheckAnswer       compares a measured answer with a reference answer.
//
// Answers use the library's convention (search/search_index.h): pairs of
// (Euclidean distance, id), ascending by distance, equal distances by
// ascending id. Distances are summed in index order, as the library's
// EuclideanDistance does, so a correct answer normally matches to the bit;
// the checker still allows kDistanceAbsTol + kDistanceRelTol * distance.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "ts/time_series.h"

namespace perfbench {

using Neighbors = std::vector<std::pair<double, size_t>>;

/// Checker tolerance on each distance: |got - want| <= abs + rel * want.
constexpr double kDistanceAbsTol = 1e-9;
constexpr double kDistanceRelTol = 1e-9;

/// The k nearest series of `corpus` to `query` (min(k, N) of them),
/// computed with no pruning at all.
Neighbors BruteForceKnn(const sapla::Dataset& corpus,
                        const std::vector<double>& query, size_t k);

/// \brief Early-abandoning exact k-NN scan over a contiguous copy of a
/// corpus.
class EarlyAbandonScan {
 public:
  /// Row width between abandonment checks.
  static constexpr size_t kBlock = 16;

  /// Copies the corpus into one row-major arena. Series must share a length.
  explicit EarlyAbandonScan(const sapla::Dataset& corpus);

  /// Exact k-NN; `query` must have the corpus' series length.
  Neighbors Knn(const std::vector<double>& query, size_t k) const;

  size_t size() const { return count_; }
  size_t length() const { return length_; }

 private:
  size_t count_ = 0;
  size_t length_ = 0;
  std::vector<double> rows_;
};

/// Empty when `got` equals `want`: the same number of neighbors, the same
/// ids in the same order, and each distance within the tolerance above.
/// Otherwise a one-line description of the first difference.
std::string CheckAnswer(const Neighbors& got, const Neighbors& want);

/// Checks an answer against the raw series it names, without a reference
/// answer: exactly `k` neighbors, distinct ids that are all in `series`,
/// ascending (distance, id) order, and each distance equal (within the
/// tolerance) to the distance recomputed from `series[id]`. Empty when it
/// holds, else a description of the first violation.
std::string CheckAgainstSeries(const Neighbors& got, size_t k,
                               const std::vector<double>& query,
                               const std::vector<std::vector<double>>& series);

}  // namespace perfbench

#endif  // SAPLA_PERFBENCH_ORACLE_H_
