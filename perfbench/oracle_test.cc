// Self-test of the benchmark's ground truth (oracle.h). run.py runs it
// before every measurement, so a broken scan or checker stops the benchmark
// instead of producing numbers.

#include "oracle.h"

#include <gtest/gtest.h>

#include <cmath>

#include "search/knn.h"
#include "util/rng.h"

namespace perfbench {
namespace {

sapla::Dataset RandomCorpus(size_t count, size_t length, uint64_t seed) {
  sapla::Rng rng(seed);
  sapla::Dataset ds;
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> values(length);
    for (double& v : values) v = rng.Gaussian();
    ds.series.emplace_back(std::move(values), 0);
  }
  return ds;
}

std::vector<double> RandomQuery(size_t length, sapla::Rng& rng) {
  std::vector<double> q(length);
  for (double& v : q) v = rng.Gaussian();
  return q;
}

void ExpectScanMatchesOracle(const sapla::Dataset& corpus,
                             const std::vector<double>& query, size_t k) {
  const EarlyAbandonScan scan(corpus);
  const Neighbors want = BruteForceKnn(corpus, query, k);
  ASSERT_EQ(want.size(), std::min(k, corpus.size()));
  EXPECT_EQ(scan.Knn(query, k), want) << "k=" << k;
}

TEST(EarlyAbandonScan, MatchesOracleOnRandomCorpora) {
  sapla::Rng rng(11);
  for (const size_t length : {1, 15, 16, 17, 64, 250}) {
    for (const size_t count : {1, 7, 300}) {
      const sapla::Dataset corpus = RandomCorpus(count, length, 100 + length);
      for (int q = 0; q < 5; ++q) {
        const std::vector<double> query = RandomQuery(length, rng);
        for (const size_t k : {1, 4, 16}) ExpectScanMatchesOracle(corpus, query, k);
      }
    }
  }
}

TEST(EarlyAbandonScan, MatchesOracleOnPerturbedMembers) {
  // The benchmark's query shape: a corpus series plus small noise, so the
  // nearest neighbor is close and abandonment is aggressive.
  const sapla::Dataset corpus = RandomCorpus(500, 128, 5);
  sapla::Rng rng(6);
  for (int q = 0; q < 20; ++q) {
    std::vector<double> query = corpus.series[rng.UniformInt(500)].values;
    for (double& v : query) v += rng.Gaussian(0.0, 0.05);
    ExpectScanMatchesOracle(corpus, query, 16);
  }
}

TEST(EarlyAbandonScan, DistancesEqualTheLibrarysToTheBit) {
  const sapla::Dataset corpus = RandomCorpus(200, 96, 9);
  sapla::Rng rng(10);
  const std::vector<double> query = RandomQuery(96, rng);
  const sapla::KnnResult lib = sapla::LinearScanKnn(corpus, query, 16);
  EXPECT_EQ(EarlyAbandonScan(corpus).Knn(query, 16), lib.neighbors);
}

TEST(EarlyAbandonScan, ExactDuplicatesKeepTheSmallestIds) {
  sapla::Dataset corpus = RandomCorpus(40, 33, 21);
  // Three copies of series 5 at ids 40..42, and the query is series 5.
  for (int c = 0; c < 3; ++c) corpus.series.push_back(corpus.series[5]);
  const std::vector<double> query = corpus.series[5].values;
  for (const size_t k : {1, 2, 3, 4, 6}) ExpectScanMatchesOracle(corpus, query, k);
  const Neighbors got = EarlyAbandonScan(corpus).Knn(query, 2);
  EXPECT_EQ(got[0], std::make_pair(0.0, size_t{5}));
  EXPECT_EQ(got[1], std::make_pair(0.0, size_t{40}));
}

TEST(EarlyAbandonScan, TiesAtTheKthDistanceBreakById) {
  // Query 0; series j holds a single +-1.5 spike, so all sit at distance
  // exactly 1.5, except ids 3 and 8 which sit closer at 0.5.
  const size_t length = 48;
  sapla::Dataset corpus;
  for (size_t j = 0; j < 12; ++j) {
    std::vector<double> values(length, 0.0);
    const double height = (j == 3 || j == 8) ? 0.5 : 1.5;
    values[(7 * j) % length] = (j % 2 == 0) ? height : -height;
    corpus.series.emplace_back(std::move(values), 0);
  }
  const std::vector<double> query(length, 0.0);
  for (size_t k = 1; k <= 13; ++k) ExpectScanMatchesOracle(corpus, query, k);
  const Neighbors got = EarlyAbandonScan(corpus).Knn(query, 4);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].second, 3u);
  EXPECT_EQ(got[1].second, 8u);
  EXPECT_EQ(got[2].second, 0u);
  EXPECT_EQ(got[3].second, 1u);
}

TEST(EarlyAbandonScan, ConstantSeries) {
  sapla::Dataset corpus;
  for (const double level : {3.0, -1.0, 0.0, 2.0, -1.0, 0.5, 3.0, 0.0})
    corpus.series.emplace_back(std::vector<double>(40, level), 0);
  for (const double q : {0.0, -1.0, 2.9, 100.0}) {
    const std::vector<double> query(40, q);
    for (size_t k = 1; k <= 8; ++k) ExpectScanMatchesOracle(corpus, query, k);
  }
}

TEST(EarlyAbandonScan, KAtLeastCorpusSizeReturnsEverything) {
  const sapla::Dataset corpus = RandomCorpus(9, 20, 31);
  sapla::Rng rng(32);
  const std::vector<double> query = RandomQuery(20, rng);
  for (const size_t k : {9, 10, 100}) {
    ExpectScanMatchesOracle(corpus, query, k);
    EXPECT_EQ(EarlyAbandonScan(corpus).Knn(query, k).size(), 9u);
  }
  EXPECT_TRUE(EarlyAbandonScan(corpus).Knn(query, 0).empty());
}

Neighbors Reference() {
  return {{0.5, 7}, {1.25, 2}, {1.25, 9}, {2.0, 4}};
}

TEST(CheckAnswer, AcceptsTheReferenceAndRoundingNoise) {
  EXPECT_EQ(CheckAnswer(Reference(), Reference()), "");
  Neighbors close = Reference();
  close[3].first = std::nextafter(close[3].first, 3.0);
  EXPECT_EQ(CheckAnswer(close, Reference()), "");
}

TEST(CheckAnswer, FlagsASwappedId) {
  Neighbors got = Reference();
  std::swap(got[1].second, got[2].second);
  EXPECT_NE(CheckAnswer(got, Reference()), "");
}

TEST(CheckAnswer, FlagsAWrongDistance) {
  Neighbors got = Reference();
  got[2].first += 1e-6;
  EXPECT_NE(CheckAnswer(got, Reference()), "");
}

TEST(CheckAnswer, FlagsAMissingNeighbor) {
  Neighbors got = Reference();
  got.pop_back();
  EXPECT_NE(CheckAnswer(got, Reference()), "");
  got = Reference();
  got.erase(got.begin() + 1);
  got.push_back({2.5, 11});
  EXPECT_NE(CheckAnswer(got, Reference()), "");
}

TEST(CheckAnswer, FlagsADuplicateId) {
  Neighbors got = Reference();
  got[3] = got[2];
  const std::string why = CheckAnswer(got, Reference());
  EXPECT_NE(why.find("duplicate"), std::string::npos) << why;
}

TEST(CheckAgainstSeries, RecomputesEveryDistance) {
  const sapla::Dataset corpus = RandomCorpus(30, 24, 41);
  std::vector<std::vector<double>> series;
  for (const auto& ts : corpus.series) series.push_back(ts.values);
  sapla::Rng rng(42);
  const std::vector<double> query = RandomQuery(24, rng);
  const Neighbors good = BruteForceKnn(corpus, query, 5);
  EXPECT_EQ(CheckAgainstSeries(good, 5, query, series), "");

  Neighbors wrong = good;
  wrong[1].first *= 1.001;
  EXPECT_NE(CheckAgainstSeries(wrong, 5, query, series), "");
  Neighbors swapped = good;
  std::swap(swapped[0].second, swapped[4].second);
  EXPECT_NE(CheckAgainstSeries(swapped, 5, query, series), "");
  Neighbors missing = good;
  missing.pop_back();
  EXPECT_NE(CheckAgainstSeries(missing, 5, query, series), "");
  Neighbors dup = good;
  dup[4] = dup[3];
  EXPECT_NE(CheckAgainstSeries(dup, 5, query, series), "");
  Neighbors unknown = good;
  unknown[4].second = 30;
  EXPECT_NE(CheckAgainstSeries(unknown, 5, query, series), "");
}

}  // namespace
}  // namespace perfbench
