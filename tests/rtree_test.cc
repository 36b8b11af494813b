// Structural and search tests for the Guttman R-tree.

#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sapla {
namespace {

double PointBoxDist(const std::vector<double>& p, const std::vector<double>& lo,
                    const std::vector<double>& hi) {
  double sum = 0.0;
  for (size_t d = 0; d < p.size(); ++d) {
    double gap = 0.0;
    if (p[d] < lo[d]) gap = lo[d] - p[d];
    if (p[d] > hi[d]) gap = p[d] - hi[d];
    sum += gap * gap;
  }
  return std::sqrt(sum);
}

double PointDist(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double g = a[d] - b[d];
    sum += g * g;
  }
  return std::sqrt(sum);
}

std::vector<std::vector<double>> RandomPoints(uint64_t seed, size_t count,
                                              size_t dims) {
  Rng rng(seed);
  std::vector<std::vector<double>> pts(count, std::vector<double>(dims));
  for (auto& p : pts)
    for (auto& x : p) x = rng.Uniform(-100.0, 100.0);
  return pts;
}

TEST(RTree, EmptyTreeStats) {
  RTree tree(3);
  const TreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.leaf_nodes, 1u);  // the empty root leaf
  EXPECT_EQ(stats.internal_nodes, 0u);
  EXPECT_EQ(stats.height, 1u);
}

TEST(RTree, AllEntriesReachable) {
  const auto pts = RandomPoints(1, 200, 4);
  RTree tree(4);
  for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
  EXPECT_EQ(tree.size(), pts.size());

  // Full traversal (box distance 0 everywhere, never tighten the bound).
  std::set<size_t> seen;
  tree.BestFirstSearch(
      [](const std::vector<double>&, const std::vector<double>&) {
        return 0.0;
      },
      [&](size_t id, double bound) {
        seen.insert(id);
        return bound;
      });
  EXPECT_EQ(seen.size(), pts.size());
}

TEST(RTree, FillFactorsRespected) {
  const auto pts = RandomPoints(2, 300, 3);
  RTree tree(3, RTreeOptions{2, 5});
  for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
  const TreeStats stats = tree.ComputeStats();
  EXPECT_GE(stats.avg_leaf_entries, 2.0);
  EXPECT_LE(stats.avg_leaf_entries, 5.0);
  EXPECT_GE(stats.height, 3u);  // 300 entries, fanout <= 5
}

TEST(RTree, NearestNeighborMatchesLinearScan) {
  const auto pts = RandomPoints(3, 150, 5);
  RTree tree(5);
  for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);

  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(5);
    for (auto& x : q) x = rng.Uniform(-120.0, 120.0);

    size_t best_id = 0;
    double best = 1e300;
    for (size_t i = 0; i < pts.size(); ++i) {
      const double d = PointDist(q, pts[i]);
      if (d < best) {
        best = d;
        best_id = i;
      }
    }

    double found = 1e300;
    size_t found_id = 0;
    tree.BestFirstSearch(
        [&](const std::vector<double>& lo, const std::vector<double>& hi) {
          return PointBoxDist(q, lo, hi);
        },
        [&](size_t id, double bound) {
          const double d = PointDist(q, pts[id]);
          if (d < found) {
            found = d;
            found_id = id;
          }
          return std::min(bound, found);
        });
    EXPECT_EQ(found_id, best_id);
    EXPECT_NEAR(found, best, 1e-12);
  }
}

TEST(RTree, SearchPrunesWithExactBound) {
  // With a valid geometric bound, pruning must not lose the nearest
  // neighbor AND should touch fewer entries than a scan on clustered data.
  Rng rng(4);
  std::vector<std::vector<double>> pts;
  for (int cluster = 0; cluster < 10; ++cluster) {
    std::vector<double> center(4);
    for (auto& x : center) x = rng.Uniform(-500.0, 500.0);
    for (int i = 0; i < 30; ++i) {
      std::vector<double> p = center;
      for (auto& x : p) x += rng.Gaussian();
      pts.push_back(p);
    }
  }
  RTree tree(4);
  for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);

  const std::vector<double> q = pts[17];  // query at a data point
  size_t touched = 0;
  double found = 1e300;
  tree.BestFirstSearch(
      [&](const std::vector<double>& lo, const std::vector<double>& hi) {
        return PointBoxDist(q, lo, hi);
      },
      [&](size_t id, double bound) {
        ++touched;
        found = std::min(found, PointDist(q, pts[id]));
        return std::min(bound, found);
      });
  EXPECT_NEAR(found, 0.0, 1e-12);
  EXPECT_LT(touched, pts.size() / 2);
}

// A finite starting bound (the k-th distance another index left in a heap
// several indexes share) prunes from the root's children on, before any
// entry has been visited; entries within it are all still visited.
TEST(RTree, StartingBoundPrunesBeforeTheFirstVisit) {
  const auto pts = RandomPoints(9, 300, 3);
  RTree tree(3);
  for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
  const std::vector<double>& q = pts[42];
  const double radius = 30.0;
  std::set<size_t> seen;
  SearchCounters counters;
  tree.BestFirstSearch(
      [&](const std::vector<double>& lo, const std::vector<double>& hi) {
        return PointBoxDist(q, lo, hi);
      },
      [&](size_t id, double bound) {
        EXPECT_EQ(bound, radius);  // the visit never tightened it
        seen.insert(id);
        return bound;
      },
      &counters, radius);
  size_t within = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (PointDist(q, pts[i]) > radius) continue;
    ++within;
    EXPECT_TRUE(seen.count(i)) << i;
  }
  EXPECT_GT(within, 1u);
  EXPECT_LT(seen.size(), pts.size() / 2);
  EXPECT_GT(counters.nodes_pruned, 0u);
}

TEST(RTree, DuplicatePointsAllRetained) {
  RTree tree(2);
  const std::vector<double> p{1.0, 2.0};
  for (size_t i = 0; i < 20; ++i) tree.Insert(p, i);
  std::set<size_t> seen;
  tree.BestFirstSearch(
      [](const std::vector<double>&, const std::vector<double>&) {
        return 0.0;
      },
      [&](size_t id, double bound) {
        seen.insert(id);
        return bound;
      });
  EXPECT_EQ(seen.size(), 20u);
}

TEST(RTreeBulkLoad, PacksLeavesNearFull) {
  const auto pts = RandomPoints(7, 500, 4);
  RTree tree(4, RTreeOptions{2, 5});
  std::vector<RTree::BulkEntry> entries;
  for (size_t i = 0; i < pts.size(); ++i)
    entries.push_back({pts[i], pts[i], i});
  tree.BulkLoadStr(std::move(entries));
  EXPECT_EQ(tree.size(), pts.size());
  const TreeStats stats = tree.ComputeStats();
  EXPECT_GE(stats.avg_leaf_entries, 4.0);  // near max fill 5
  // All entries reachable.
  std::set<size_t> seen;
  tree.BestFirstSearch(
      [](const std::vector<double>&, const std::vector<double>&) {
        return 0.0;
      },
      [&](size_t id, double bound) {
        seen.insert(id);
        return bound;
      });
  EXPECT_EQ(seen.size(), pts.size());
}

TEST(RTreeBulkLoad, SearchMatchesLinearScan) {
  const auto pts = RandomPoints(8, 200, 3);
  RTree tree(3);
  std::vector<RTree::BulkEntry> entries;
  for (size_t i = 0; i < pts.size(); ++i)
    entries.push_back({pts[i], pts[i], i});
  tree.BulkLoadStr(std::move(entries));

  Rng rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(3);
    for (auto& x : q) x = rng.Uniform(-120.0, 120.0);
    size_t best_id = 0;
    double best = 1e300;
    for (size_t i = 0; i < pts.size(); ++i) {
      const double d = PointDist(q, pts[i]);
      if (d < best) {
        best = d;
        best_id = i;
      }
    }
    double found = 1e300;
    size_t found_id = 0;
    tree.BestFirstSearch(
        [&](const std::vector<double>& lo, const std::vector<double>& hi) {
          return PointBoxDist(q, lo, hi);
        },
        [&](size_t id, double bound) {
          const double d = PointDist(q, pts[id]);
          if (d < found) {
            found = d;
            found_id = id;
          }
          return std::min(bound, found);
        });
    EXPECT_EQ(found_id, best_id);
  }
}

TEST(RTreeBulkLoad, FewerNodesThanIncrementalInsert) {
  const auto pts = RandomPoints(9, 400, 4);
  RTree incremental(4), packed(4);
  std::vector<RTree::BulkEntry> entries;
  for (size_t i = 0; i < pts.size(); ++i) {
    incremental.Insert(pts[i], i);
    entries.push_back({pts[i], pts[i], i});
  }
  packed.BulkLoadStr(std::move(entries));
  EXPECT_LT(packed.ComputeStats().total_nodes(),
            incremental.ComputeStats().total_nodes());
}

TEST(RTreeBulkLoad, EmptyAndTinyInputs) {
  RTree tree(2);
  tree.BulkLoadStr({});
  EXPECT_EQ(tree.size(), 0u);
  tree.BulkLoadStr({{{1.0, 2.0}, {1.0, 2.0}, 42}});
  EXPECT_EQ(tree.size(), 1u);
  size_t seen = 0;
  tree.BestFirstSearch(
      [](const std::vector<double>&, const std::vector<double>&) {
        return 0.0;
      },
      [&](size_t id, double bound) {
        EXPECT_EQ(id, 42u);
        ++seen;
        return bound;
      });
  EXPECT_EQ(seen, 1u);
}

class RTreeScaleSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeScaleSweep, HeightGrowsLogarithmically) {
  const size_t count = GetParam();
  const auto pts = RandomPoints(count, count, 4);
  RTree tree(4, RTreeOptions{2, 5});
  for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
  const TreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.entries, count);
  // Height bounded by log_2(count) + slack (min fanout 2).
  const size_t bound =
      static_cast<size_t>(std::ceil(std::log2(static_cast<double>(count)))) +
      2;
  EXPECT_LE(stats.height, bound);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeScaleSweep,
                         ::testing::Values(10, 50, 100, 500, 1000));

}  // namespace
}  // namespace sapla
