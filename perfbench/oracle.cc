#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>
#include <unordered_set>

namespace perfbench {
namespace {

// Squared Euclidean distance summed in index order (the library's order).
double SquaredDistance(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

bool WithinTolerance(double got, double want) {
  return std::fabs(got - want) <=
         kDistanceAbsTol + kDistanceRelTol * std::fabs(want);
}

std::string Describe(const char* what, size_t pos, const Neighbors& got) {
  char buf[160];
  snprintf(buf, sizeof(buf), "%s at rank %zu (id %zu, distance %.17g)", what,
           pos, got[pos].second, got[pos].first);
  return buf;
}

// A duplicate id is reported as such before any rank comparison, so the
// message names the real fault rather than the shift it causes.
std::string FindDuplicate(const Neighbors& got) {
  std::unordered_set<size_t> seen;
  for (size_t i = 0; i < got.size(); ++i)
    if (!seen.insert(got[i].second).second)
      return Describe("duplicate id", i, got);
  return {};
}

}  // namespace

Neighbors BruteForceKnn(const sapla::Dataset& corpus,
                        const std::vector<double>& query, size_t k) {
  Neighbors all;
  all.reserve(corpus.size());
  for (size_t id = 0; id < corpus.size(); ++id)
    all.emplace_back(std::sqrt(SquaredDistance(query.data(),
                                               corpus.series[id].values.data(),
                                               query.size())),
                     id);
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

EarlyAbandonScan::EarlyAbandonScan(const sapla::Dataset& corpus)
    : count_(corpus.size()), length_(corpus.length()) {
  rows_.reserve(count_ * length_);
  for (const sapla::TimeSeries& ts : corpus.series)
    rows_.insert(rows_.end(), ts.values.begin(), ts.values.end());
}

Neighbors EarlyAbandonScan::Knn(const std::vector<double>& query,
                                size_t k) const {
  Neighbors out;
  if (k == 0 || count_ == 0) return out;
  // Max-heap of the k best (distance, id) pairs seen so far.
  std::priority_queue<std::pair<double, size_t>> best;
  // A row whose partial squared sum exceeds `limit` cannot enter the heap.
  // The k-th distance is a rounded square root, so two different sums can
  // share it and then tie on id; the relative slack (far above that
  // rounding gap) keeps every such row and lets the final (distance, id)
  // comparison decide, exactly as the index's top-k does.
  constexpr double kLimitSlack = 1e-12;
  double limit = std::numeric_limits<double>::infinity();
  const double* q = query.data();
  const size_t full_blocks = length_ / kBlock * kBlock;
  for (size_t id = 0; id < count_; ++id) {
    const double* row = rows_.data() + id * length_;
    double s = 0.0;
    size_t i = 0;
    for (; i < full_blocks; i += kBlock) {
      for (size_t j = i; j < i + kBlock; ++j) {
        const double d = q[j] - row[j];
        s += d * d;
      }
      if (s > limit) break;
    }
    if (i < full_blocks) continue;  // abandoned
    for (; i < length_; ++i) {
      const double d = q[i] - row[i];
      s += d * d;
    }
    const std::pair<double, size_t> candidate(std::sqrt(s), id);
    if (best.size() < k) {
      best.push(candidate);
    } else if (candidate < best.top()) {
      best.pop();
      best.push(candidate);
    }
    if (best.size() == k)
      limit = best.top().first * best.top().first * (1.0 + kLimitSlack);
  }
  out.resize(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

std::string CheckAnswer(const Neighbors& got, const Neighbors& want) {
  if (std::string dup = FindDuplicate(got); !dup.empty()) return dup;
  if (got.size() != want.size()) {
    char buf[96];
    snprintf(buf, sizeof(buf), "%zu neighbors, expected %zu", got.size(),
             want.size());
    return buf;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].second != want[i].second) {
      char buf[200];
      snprintf(buf, sizeof(buf),
               "id %zu (distance %.17g) at rank %zu, expected id %zu "
               "(distance %.17g)",
               got[i].second, got[i].first, i, want[i].second, want[i].first);
      return buf;
    }
    if (!WithinTolerance(got[i].first, want[i].first)) {
      char buf[160];
      snprintf(buf, sizeof(buf),
               "distance %.17g at rank %zu (id %zu), expected %.17g",
               got[i].first, i, got[i].second, want[i].first);
      return buf;
    }
  }
  return {};
}

std::string CheckAgainstSeries(const Neighbors& got, size_t k,
                               const std::vector<double>& query,
                               const std::vector<std::vector<double>>& series) {
  if (std::string dup = FindDuplicate(got); !dup.empty()) return dup;
  if (got.size() != k) {
    char buf[96];
    snprintf(buf, sizeof(buf), "%zu neighbors, expected %zu", got.size(), k);
    return buf;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const size_t id = got[i].second;
    if (id >= series.size() || series[id].size() != query.size())
      return Describe("unknown id", i, got);
    if (i > 0 && got[i] < got[i - 1]) return Describe("out of order", i, got);
    const double exact = std::sqrt(
        SquaredDistance(query.data(), series[id].data(), query.size()));
    if (!WithinTolerance(got[i].first, exact))
      return Describe("wrong distance", i, got);
  }
  return {};
}

}  // namespace perfbench
