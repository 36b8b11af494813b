#include "index/feature_map.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "distance/distance.h"
#include "reduction/pla.h"
#include "util/status.h"

namespace sapla {
namespace {

double ClampGap(double v, double lo, double hi) {
  if (v < lo) return lo - v;
  if (v > hi) return v - hi;
  return 0.0;
}

}  // namespace

double ConvexQuadMinOnBox(double A, double B, double C, double xlo, double xhi,
                          double ylo, double yhi) {
  // f(x, y) = A x^2 + B x y + C y^2 is convex (A, C >= 0, 4AC >= B^2 for the
  // Eq. 12 coefficients); its unconstrained minimum is the origin.
  if (xlo <= 0.0 && 0.0 <= xhi && ylo <= 0.0 && 0.0 <= yhi) return 0.0;
  auto eval = [&](double x, double y) { return A * x * x + B * x * y + C * y * y; };
  double best = std::numeric_limits<double>::infinity();
  // Vertical edges x = const: minimize over y.
  for (const double x : {xlo, xhi}) {
    const double y = C > 0.0 ? std::clamp(-B * x / (2.0 * C), ylo, yhi) : ylo;
    best = std::min(best, eval(x, y));
  }
  // Horizontal edges y = const: minimize over x.
  for (const double y : {ylo, yhi}) {
    const double x = A > 0.0 ? std::clamp(-B * y / (2.0 * A), xlo, xhi) : xlo;
    best = std::min(best, eval(x, y));
  }
  return best;
}

FeatureMapper::FeatureMapper(Method method, size_t m, size_t n)
    : method_(method), n_(n), num_segments_(SegmentsForBudget(method, m)) {
  switch (method_) {
    case Method::kCheby:
      dims_ = std::min(num_segments_, n_);
      break;
    case Method::kDft:
      // (re, im) per kept bin.
      dims_ = 2 * std::min(std::max<size_t>(1, m / 2), n_);
      break;
    default:
      // (value, right endpoint) per segment — the APCA mapping — and
      // (a, b) per segment for PLA: both are 2 dims per segment.
      dims_ = 2 * std::min(num_segments_, n_);
      break;
  }
}

FeatureMapper::Box FeatureMapper::MapBox(const RepView& rep,
                                         const std::vector<double>& raw) const {
  SAPLA_DCHECK(rep.method() == method_ && rep.n() == n_);
  Box box;
  if (method_ == Method::kCheby || method_ == Method::kDft) {
    box.lo.assign(rep.coeffs(), rep.coeffs() + rep.num_coeffs());
    box.lo.resize(dims_, 0.0);
    box.hi = box.lo;
    return box;
  }
  box.lo.reserve(dims_);
  box.hi.reserve(dims_);
  if (method_ == Method::kPla) {
    for (size_t i = 0; i < rep.num_segments(); ++i) {
      box.lo.push_back(rep.seg_a(i));
      box.lo.push_back(rep.seg_b(i));
    }
    box.hi = box.lo;
  } else {
    // APCA construction: per segment, the RAW value range (every raw point
    // of the member lies inside it — the key to the MINDIST lower bound)
    // paired with the right endpoint.
    SAPLA_DCHECK(raw.size() == n_);
    for (size_t i = 0; i < rep.num_segments(); ++i) {
      const size_t s = rep.segment_start(i);
      double vmin = raw[s], vmax = raw[s];
      for (size_t t = s + 1; t <= rep.seg_r(i); ++t) {
        vmin = std::min(vmin, raw[t]);
        vmax = std::max(vmax, raw[t]);
      }
      const double r = static_cast<double>(rep.seg_r(i));
      box.lo.push_back(vmin);
      box.hi.push_back(vmax);
      box.lo.push_back(r);
      box.hi.push_back(r);
    }
  }
  // Short series can yield fewer segments than the budget; pad by repeating
  // the final segment pair so all boxes share the tree's dimensionality.
  while (box.lo.size() < dims_) {
    box.lo.push_back(box.lo[box.lo.size() - 2]);
    box.hi.push_back(box.hi[box.hi.size() - 2]);
  }
  return box;
}

FeatureMapper::Query FeatureMapper::PrepareQuery(
    const std::vector<double>& raw, const RepView& rep) const {
  SAPLA_DCHECK(raw.size() == n_);
  Query q;
  q.rep = rep;
  q.prefix.resize(raw.size() + 1);
  q.prefix[0] = 0.0;
  double abs_sum = 0.0;
  for (size_t t = 0; t < raw.size(); ++t) {
    q.prefix[t + 1] = q.prefix[t] + raw[t];
    abs_sum += std::abs(raw[t]);
  }
  // Left-to-right summation errs by at most n*u*sum|q| per prefix; the
  // difference of two prefixes and the division by the interval length
  // add a few ulps more. (2n + 16) u covers all of it.
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  q.sum_error = (2.0 * static_cast<double>(n_) + 16.0) * kUnitRoundoff * abs_sum;
  return q;
}

double FeatureMapper::ApcaRegionBound(const Query& q,
                                      const std::vector<double>& lo,
                                      const std::vector<double>& hi) const {
  // Keogh's APCA MBR: region i spans time [start(i), end(i)) with value
  // range [lo[2i], hi[2i]], where start(0) = 0, start(i) = lo[2i-1] + 1
  // (the earliest end of the previous segment, plus one) and end(i) =
  // hi[2i+1] + 1. Both are nondecreasing in i and the regions cover
  // [0, n). Cutting [0, n) at every start and end leaves <= 2R pieces,
  // each covered by one contiguous run of regions [first, past).
  //
  // For every member x and time t, x_t lies in the value range of some
  // region covering t, hence in the run's hull [min lo, max hi], so
  // (q_t - x_t)^2 >= gap(q_t, hull)^2. gap^2 is convex, so by Jensen a
  // piece [a, b) contributes at least (b - a) * gap(mean of q over it)^2,
  // and the mean comes from the prefix sums: O(R + overlap) per box.
  const size_t num_regions = dims_ / 2;
  const auto start = [&](size_t i) {
    return i == 0 ? 0.0 : lo[2 * i - 1] + 1.0;
  };
  const auto end = [&](size_t i) { return hi[2 * i + 1] + 1.0; };

  double sum = 0.0;
  size_t first = 0, past = 0;
  for (size_t a = 0; a < n_;) {
    const double at = static_cast<double>(a);
    while (past < num_regions && start(past) <= at) ++past;
    while (first < past && end(first) <= at) ++first;
    double next = static_cast<double>(n_);
    if (past < num_regions) next = std::min(next, start(past));
    if (first < past) next = std::min(next, end(first));
    // Endpoints are integers, so this is exact; ceil only guarantees
    // progress should a malformed box carry fractional ones.
    const size_t b = std::min(n_, static_cast<size_t>(std::ceil(next)));
    if (first < past) {
      double vlo = lo[2 * first], vhi = hi[2 * first];
      for (size_t j = first + 1; j < past; ++j) {
        vlo = std::min(vlo, lo[2 * j]);
        vhi = std::max(vhi, hi[2 * j]);
      }
      const double len = static_cast<double>(b - a);
      const double mean = (q.prefix[b] - q.prefix[a]) / len;
      // Shrink the gap by the mean's rounding error, so a query equal to
      // a member (or constant on the piece) never gets a positive bound
      // from rounding alone.
      const double gap = ClampGap(mean, vlo, vhi) - q.sum_error / len;
      if (gap > 0.0) sum += len * gap * gap;
    }
    a = b;
  }
  // The refine step's squared distance sums n rounded terms; shrink by its
  // worst relative rounding error (and this sum's), so that a bound that
  // is tight in exact arithmetic never exceeds a member's computed
  // distance and prunes a tie.
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  sum *= 1.0 - (static_cast<double>(n_ + dims_) + 16.0) * kUnitRoundoff;
  return std::sqrt(sum);
}

double FeatureMapper::PlaBoxMinDist(const RepView& q,
                                    const std::vector<double>& lo,
                                    const std::vector<double>& hi) const {
  // Chen et al.: per equal-length segment, the squared distance between two
  // lines is the convex quadratic of Eq. (12) in (da, db); minimize it over
  // the MBR's (a, b) rectangle relative to the query's coefficients.
  const std::vector<size_t> ends = EqualLengthEndpoints(n_, num_segments_);
  double sum = 0.0;
  size_t start = 0;
  for (size_t i = 0; i < ends.size() && 2 * i + 1 < dims_; ++i) {
    const double l = static_cast<double>(ends[i] - start + 1);
    const double A = l * (l - 1.0) * (2.0 * l - 1.0) / 6.0;
    const double B = l * (l - 1.0);
    const double C = l;
    const double qa = q.seg_a(i);
    const double qb = q.seg_b(i);
    sum += ConvexQuadMinOnBox(A, B, C, lo[2 * i] - qa, hi[2 * i] - qa,
                              lo[2 * i + 1] - qb, hi[2 * i + 1] - qb);
    start = ends[i] + 1;
  }
  return std::sqrt(sum);
}

double FeatureMapper::MinDist(const Query& query,
                              const std::vector<double>& lo,
                              const std::vector<double>& hi) const {
  SAPLA_DCHECK(lo.size() == dims_ && hi.size() == dims_);
  const RepView& query_rep = query.rep;
  switch (method_) {
    case Method::kCheby: {
      double sum = 0.0;
      for (size_t i = 0; i < dims_ && i < query_rep.num_coeffs(); ++i) {
        const double gap = ClampGap(query_rep.coeffs()[i], lo[i], hi[i]);
        sum += gap * gap;
      }
      return std::sqrt(sum);
    }
    case Method::kDft: {
      // Conjugate-mirror weighting: interior bins count twice (cf. DftDist).
      double sum = 0.0;
      for (size_t i = 0; i < dims_ && i < query_rep.num_coeffs(); ++i) {
        const size_t k = i / 2;
        const double weight = (k == 0 || 2 * k == n_) ? 1.0 : 2.0;
        const double gap = ClampGap(query_rep.coeffs()[i], lo[i], hi[i]);
        sum += weight * gap * gap;
      }
      return std::sqrt(sum);
    }
    case Method::kPla:
      return PlaBoxMinDist(query_rep, lo, hi);
    default:
      return ApcaRegionBound(query, lo, hi);
  }
}

}  // namespace sapla
