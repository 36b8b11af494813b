// Lower-bounding properties of the per-method filter distances
// (distance/mindist.h) and the query-to-MBR distances (index/feature_map.h),
// including the APCA-family node bound against Keogh's region MINDIST.

#include "distance/mindist.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/feature_map.h"
#include "reduction/cheby.h"
#include "reduction/sax.h"
#include "ts/time_series.h"
#include "util/rng.h"

namespace sapla {
namespace {

std::vector<double> ZNormSeries(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 0.0;
  for (auto& p : v) {
    x += rng.Gaussian();
    p = x;
  }
  ZNormalize(&v);
  return v;
}

TEST(SaxMinDist, ZeroForIdenticalAndAdjacentSymbols) {
  const std::vector<double> a = ZNormSeries(1, 64);
  const SaxReducer reducer(8);
  const Representation ra = reducer.Reduce(a, 8);
  EXPECT_DOUBLE_EQ(SaxMinDist(ra, ra), 0.0);
}

TEST(SaxMinDist, LowerBoundsEuclidean) {
  // The classic SAX guarantee on z-normalized series.
  const SaxReducer reducer(8);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const std::vector<double> a = ZNormSeries(seed, 128);
    const std::vector<double> b = ZNormSeries(seed + 100, 128);
    const Representation ra = reducer.Reduce(a, 16);
    const Representation rb = reducer.Reduce(b, 16);
    EXPECT_LE(SaxMinDist(ra, rb), EuclideanDistance(a, b) + 1e-9)
        << "seed " << seed;
  }
}

TEST(SaxMinDist, GrowsWithSymbolSeparation) {
  Representation a, b;
  a.method = b.method = Method::kSax;
  a.n = b.n = 64;
  a.alphabet = b.alphabet = 8;
  a.segments = b.segments = {{0, 0, 31}, {0, 0, 63}};
  a.symbols = {0, 0};
  double prev = -1.0;
  for (int sym = 1; sym < 8; ++sym) {
    b.symbols = {sym, sym};
    const double d = SaxMinDist(a, b);
    EXPECT_GE(d, prev);
    prev = d;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(ChebyDist, LowerBoundsEuclideanByParseval) {
  const ChebyReducer reducer;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const std::vector<double> a = ZNormSeries(seed + 40, 128);
    const std::vector<double> b = ZNormSeries(seed + 400, 128);
    const Representation ra = reducer.Reduce(a, 16);
    const Representation rb = reducer.Reduce(b, 16);
    EXPECT_LE(ChebyDist(ra, rb), EuclideanDistance(a, b) + 1e-9);
  }
}

TEST(ChebyDist, FullBudgetEqualsEuclidean) {
  const std::vector<double> a = ZNormSeries(70, 64);
  const std::vector<double> b = ZNormSeries(71, 64);
  const ChebyReducer reducer;
  const Representation ra = reducer.Reduce(a, 64);
  const Representation rb = reducer.Reduce(b, 64);
  EXPECT_NEAR(ChebyDist(ra, rb), EuclideanDistance(a, b), 1e-8);
}

TEST(LowerBoundDistance, DispatchesPerMethod) {
  const std::vector<double> a = ZNormSeries(80, 64);
  const std::vector<double> b = ZNormSeries(81, 64);
  for (const Method m : AllMethods()) {
    const auto reducer = MakeReducer(m);
    const Representation ra = reducer->Reduce(a, 12);
    const Representation rb = reducer->Reduce(b, 12);
    const double d = LowerBoundDistance(ra, rb);
    EXPECT_TRUE(std::isfinite(d)) << MethodName(m);
    EXPECT_GE(d, 0.0) << MethodName(m);
    EXPECT_NEAR(LowerBoundDistance(ra, ra), 0.0, 1e-9) << MethodName(m);
  }
}

TEST(ConvexQuadMinOnBox, ZeroWhenBoxContainsOrigin) {
  EXPECT_DOUBLE_EQ(ConvexQuadMinOnBox(3, 1, 2, -1, 1, -1, 1), 0.0);
}

TEST(ConvexQuadMinOnBox, MatchesGridSearch) {
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const double l = 2.0 + static_cast<double>(rng.UniformInt(20));
    const double A = l * (l - 1.0) * (2.0 * l - 1.0) / 6.0;
    const double B = l * (l - 1.0);
    const double C = l;
    const double xlo = rng.Uniform(-2, 2);
    const double xhi = xlo + rng.Uniform(0, 2);
    const double ylo = rng.Uniform(-2, 2);
    const double yhi = ylo + rng.Uniform(0, 2);
    const double analytic = ConvexQuadMinOnBox(A, B, C, xlo, xhi, ylo, yhi);
    double grid = 1e300;
    const int steps = 60;
    for (int i = 0; i <= steps; ++i) {
      for (int j = 0; j <= steps; ++j) {
        const double x = xlo + (xhi - xlo) * i / steps;
        const double y = ylo + (yhi - ylo) * j / steps;
        grid = std::min(grid, A * x * x + B * x * y + C * y * y);
      }
    }
    EXPECT_LE(analytic, grid + 1e-6);
    EXPECT_GE(analytic, grid - 0.3);  // grid resolution slack
  }
}

// Query-to-MBR distances must lower-bound the query-to-member distance for
// every member inside the box (the GEMINI no-false-dismissal requirement at
// node level) for the provable mappings.
class FeatureMapSweep : public ::testing::TestWithParam<Method> {};

TEST_P(FeatureMapSweep, BoxDistLowerBoundsMemberDist) {
  const Method method = GetParam();
  const size_t n = 96, m = 12;
  const auto reducer = MakeReducer(method);
  const FeatureMapper mapper(method, m, n);

  // Build a node MBR over a handful of member feature boxes.
  std::vector<Representation> reps;
  std::vector<std::vector<double>> raws;
  std::vector<double> lo, hi;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    raws.push_back(ZNormSeries(seed + 300, n));
    reps.push_back(reducer->Reduce(raws.back(), m));
    const FeatureMapper::Box box = mapper.MapBox(reps.back(), raws.back());
    if (lo.empty()) {
      lo = box.lo;
      hi = box.hi;
    } else {
      for (size_t d = 0; d < lo.size(); ++d) {
        lo[d] = std::min(lo[d], box.lo[d]);
        hi[d] = std::max(hi[d], box.hi[d]);
      }
    }
  }

  for (uint64_t qseed = 900; qseed < 910; ++qseed) {
    const std::vector<double> q = ZNormSeries(qseed, n);
    const Representation qr = reducer->Reduce(q, m);
    const double box_dist =
        mapper.MinDist(mapper.PrepareQuery(q, RepView::Of(qr)), lo, hi);
    EXPECT_GE(box_dist, 0.0);
    for (size_t i = 0; i < raws.size(); ++i) {
      // Box distance must not exceed the true distance to any member.
      EXPECT_LE(box_dist, EuclideanDistance(q, raws[i]) + 1e-6)
          << MethodName(method) << " member " << i << " q " << qseed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, FeatureMapSweep,
    ::testing::Values(Method::kPaa, Method::kApca, Method::kSapla,
                      Method::kApla, Method::kPla, Method::kCheby,
                      Method::kPaalm, Method::kSax, Method::kDft),
    [](const ::testing::TestParamInfo<Method>& info) {
      return MethodName(info.param);
    });

// ---------------------------------------------------------------------------
// The APCA-family node bound. Its reference is Keogh's region MINDIST as a
// per-point sweep (the R-tree's node bound before the O(regions) prefix-sum
// bound replaced it), kept here only to check the new bound against:
// region i spans [lo[2(i-1)+1] + 1, hi[2i+1]] with values [lo[2i], hi[2i]],
// and each t contributes the least squared gap to a covering region.
double SweepRegionMinDist(const std::vector<double>& q,
                          const std::vector<double>& lo,
                          const std::vector<double>& hi) {
  const size_t num_regions = lo.size() / 2;
  const auto tmin = [&](size_t i) {
    return i == 0 ? 0.0 : lo[2 * (i - 1) + 1] + 1.0;
  };
  const auto tmax = [&](size_t i) { return hi[2 * i + 1]; };
  double sum = 0.0;
  size_t j_lo = 0;
  for (size_t t = 0; t < q.size(); ++t) {
    const double td = static_cast<double>(t);
    while (j_lo + 1 < num_regions && tmax(j_lo) < td) ++j_lo;
    double best = std::numeric_limits<double>::infinity();
    for (size_t j = j_lo; j < num_regions && tmin(j) <= td; ++j) {
      if (tmax(j) < td) continue;
      const double gap = q[t] < lo[2 * j]   ? lo[2 * j] - q[t]
                         : q[t] > hi[2 * j] ? q[t] - hi[2 * j]
                                            : 0.0;
      best = std::min(best, gap * gap);
    }
    if (best == std::numeric_limits<double>::infinity()) best = 0.0;
    sum += best;
  }
  return std::sqrt(sum);
}

// a <= b within the stated floating-point tolerance: 1e-9 absolute plus
// 1e-12 relative.
::testing::AssertionResult AtMost(double a, double b) {
  if (a <= b + 1e-9 + 1e-12 * std::abs(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " exceeds " << b << " by " << a - b;
}

// Series shapes that stress different parts of the bound: smooth walks,
// spikes (adaptive segmentations move their endpoints, so the regions of a
// node overlap heavily), steps and constants.
std::vector<double> ShapedSeries(Rng& rng, size_t n) {
  std::vector<double> v(n);
  switch (rng.UniformInt(4)) {
    case 0: {
      double x = 0.0;
      for (double& p : v) p = x += rng.Gaussian();
      break;
    }
    case 1: {
      for (double& p : v) p = 0.1 * rng.Gaussian();
      v[rng.UniformInt(n)] += rng.Uniform(-8, 8);
      v[rng.UniformInt(n)] += rng.Uniform(-8, 8);
      break;
    }
    case 2: {
      const size_t cut = rng.UniformInt(n);
      const double a = rng.Uniform(-3, 3), b = rng.Uniform(-3, 3);
      for (size_t t = 0; t < n; ++t) v[t] = t < cut ? a : b;
      break;
    }
    default: {
      const double c = rng.Uniform(-3, 3);
      for (double& p : v) p = c;
      break;
    }
  }
  return v;
}

// A node over a handful of members: the union of their feature boxes, as
// the R-tree's internal entries hold it.
struct Node {
  std::vector<std::vector<double>> members;
  std::vector<double> lo, hi;
};

Node MakeNode(const FeatureMapper& mapper, const Reducer& reducer, size_t m,
              std::vector<std::vector<double>> members) {
  Node node;
  node.members = std::move(members);
  for (const std::vector<double>& x : node.members) {
    const FeatureMapper::Box box = mapper.MapBox(reducer.Reduce(x, m), x);
    if (node.lo.empty()) {
      node.lo = box.lo;
      node.hi = box.hi;
      continue;
    }
    for (size_t d = 0; d < node.lo.size(); ++d) {
      node.lo[d] = std::min(node.lo[d], box.lo[d]);
      node.hi[d] = std::max(node.hi[d], box.hi[d]);
    }
  }
  return node;
}

// bound <= sweep <= distance to every member, within tolerance; and the
// bound never exceeds a member's computed distance at all, so it cannot
// prune a member tied with the k-th neighbor.
void CheckNode(const FeatureMapper& mapper, const Reducer& reducer, size_t m,
               const Node& node, const std::vector<double>& q,
               const std::string& label) {
  const Representation qr = reducer.Reduce(q, m);
  const double bound =
      mapper.MinDist(mapper.PrepareQuery(q, RepView::Of(qr)), node.lo, node.hi);
  const double sweep = SweepRegionMinDist(q, node.lo, node.hi);
  EXPECT_GE(bound, 0.0) << label;
  EXPECT_TRUE(AtMost(bound, sweep)) << label;
  for (size_t i = 0; i < node.members.size(); ++i) {
    const double exact = EuclideanDistance(q, node.members[i]);
    EXPECT_TRUE(AtMost(sweep, exact)) << label << " member " << i;
    EXPECT_LE(bound, exact) << label << " member " << i;
  }
}

class RegionBound : public ::testing::TestWithParam<Method> {
 protected:
  // Random nodes of 1-50 members over mixed shapes; every fifth query is a
  // member itself, where the bound must be exactly zero.
  void Sweep(size_t n, size_t m, uint64_t seed, int trials) {
    const Method method = GetParam();
    const auto reducer = MakeReducer(method);
    const FeatureMapper mapper(method, m, n);
    Rng rng(seed);
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<std::vector<double>> members(1 + rng.UniformInt(50));
      for (auto& x : members) x = ShapedSeries(rng, n);
      const Node node = MakeNode(mapper, *reducer, m, std::move(members));
      const std::string label = MethodName(method) + " n=" +
                                std::to_string(n) + " m=" + std::to_string(m) +
                                " trial " + std::to_string(trial);
      if (trial % 5 == 0) {
        const std::vector<double>& q =
            node.members[rng.UniformInt(node.members.size())];
        CheckNode(mapper, *reducer, m, node, q, label + " (member query)");
        const Representation qr = reducer->Reduce(q, m);
        EXPECT_EQ(mapper.MinDist(mapper.PrepareQuery(q, RepView::Of(qr)),
                                 node.lo, node.hi),
                  0.0)
            << label;
      } else {
        CheckNode(mapper, *reducer, m, node, ShapedSeries(rng, n), label);
      }
    }
  }
};

TEST_P(RegionBound, RandomNodesOfMixedShapes) { Sweep(96, 12, 11, 80); }

TEST_P(RegionBound, HeavilyOverlappingRegions) {
  // Few segments over a long series, and members with spikes in different
  // places: adaptive segment endpoints spread across the whole range, so
  // each region of the node overlaps many others.
  const Method method = GetParam();
  const size_t n = 128, m = 6;
  const auto reducer = MakeReducer(method);
  const FeatureMapper mapper(method, m, n);
  Rng rng(21);
  double overlap = 0.0;
  size_t regions = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::vector<double>> members(10 + rng.UniformInt(31));
    for (auto& x : members) {
      x.assign(n, 0.0);
      for (double& p : x) p = 0.05 * rng.Gaussian();
      x[rng.UniformInt(n)] = rng.Uniform(-10, 10);
    }
    const Node node = MakeNode(mapper, *reducer, m, std::move(members));
    CheckNode(mapper, *reducer, m, node, ShapedSeries(rng, n),
              MethodName(method) + " overlap trial " + std::to_string(trial));
    // Region i starts before region i-1 ends by the spread of segment
    // i-1's right endpoint.
    for (size_t d = 1; d + 2 < node.lo.size(); d += 2)
      overlap += node.hi[d] - node.lo[d];
    regions += node.lo.size() / 2 - 1;
  }
  // Equal-length methods have fixed endpoints; adaptive ones must overlap
  // by a large share of the series here.
  const bool adaptive = method == Method::kApca || method == Method::kSapla ||
                        method == Method::kApla;
  if (adaptive) {
    EXPECT_GT(overlap / static_cast<double>(regions),
              static_cast<double>(n) / 8);
  }
}

TEST_P(RegionBound, PaddedShortSeries) {
  // n < 2 * segments: reductions of short series have fewer segments than
  // the budget, and the boxes repeat their last (value, end) pair.
  for (const size_t n : {3u, 5u, 7u, 11u}) Sweep(n, 24, 31 + n, 40);
}

TEST_P(RegionBound, TwoPointSeries) { Sweep(2, 12, 41, 60); }

TEST_P(RegionBound, ConstantSeries) {
  const Method method = GetParam();
  const size_t n = 64, m = 12;
  const auto reducer = MakeReducer(method);
  const FeatureMapper mapper(method, m, n);
  Rng rng(51);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::vector<double>> members(1 + rng.UniformInt(50));
    for (auto& x : members) x.assign(n, rng.Uniform(-3, 3));
    const Node node = MakeNode(mapper, *reducer, m, members);
    const std::string label =
        MethodName(method) + " constant trial " + std::to_string(trial);
    CheckNode(mapper, *reducer, m, node,
              std::vector<double>(n, rng.Uniform(-4, 4)), label);
    // A constant query equal to a member: zero, not a rounding residue.
    CheckNode(mapper, *reducer, m, node, members[0], label + " (member)");
    const Representation qr = reducer->Reduce(members[0], m);
    EXPECT_EQ(mapper.MinDist(mapper.PrepareQuery(members[0], RepView::Of(qr)),
                             node.lo, node.hi),
              0.0)
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ApcaFamily, RegionBound,
    ::testing::Values(Method::kPaa, Method::kApca, Method::kSapla,
                      Method::kApla, Method::kPaalm, Method::kSax),
    [](const ::testing::TestParamInfo<Method>& info) {
      return MethodName(info.param);
    });

TEST(FilterDistance, ConsistentWithPerMethodBounds) {
  const std::vector<double> a = ZNormSeries(500, 96);
  const std::vector<double> b = ZNormSeries(501, 96);
  PrefixFitter af(a);
  for (const Method m : AllMethodsExtended()) {
    const auto reducer = MakeReducer(m);
    const Representation ra = reducer->Reduce(a, 12);
    const Representation rb = reducer->Reduce(b, 12);
    const double d = FilterDistance(af, ra, rb);
    EXPECT_TRUE(std::isfinite(d)) << MethodName(m);
    EXPECT_GE(d, 0.0) << MethodName(m);
    // Self-filter distance is ~0 for every LS-fit method. PAALM is the
    // deliberate exception: its smoothed values are off-mean, so the raw
    // query's projection does not coincide with its own representation.
    if (m != Method::kPaalm) {
      EXPECT_NEAR(FilterDistance(af, ra, ra), 0.0, 1e-8) << MethodName(m);
    }
  }
}

TEST(FilterDistance, RigorousForLeastSquaresMethods) {
  // Dist_LB-based filters never exceed the true distance for the LS-fit
  // methods (including PAALM's smoothed constants? No — PAALM values are
  // intentionally off-mean, so it is excluded here and measured by the
  // accuracy experiment instead).
  for (uint64_t seed = 600; seed < 620; ++seed) {
    const std::vector<double> q = ZNormSeries(seed, 96);
    const std::vector<double> c = ZNormSeries(seed + 70, 96);
    PrefixFitter qf(q);
    const double euclid = EuclideanDistance(q, c);
    for (const Method m : {Method::kSapla, Method::kApla, Method::kApca,
                           Method::kPla, Method::kPaa, Method::kCheby,
                           Method::kSax, Method::kDft}) {
      const auto reducer = MakeReducer(m);
      const Representation qr = reducer->Reduce(q, 12);
      const Representation cr = reducer->Reduce(c, 12);
      EXPECT_LE(FilterDistance(qf, qr, cr), euclid + 1e-9)
          << MethodName(m) << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sapla
