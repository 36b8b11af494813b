#ifndef SAPLA_INDEX_FEATURE_MAP_H_
#define SAPLA_INDEX_FEATURE_MAP_H_

// Mapping representations into the R-tree's vector space, plus the
// query-to-MBR lower-bound distances (the paper's §6 "Implementation").
//
// Per the paper: PAA, PAALM, SAX, SAPLA, APLA and APCA are indexed through
// APCA-style MBRs (each segment contributes a (value, right-endpoint) dim
// pair); their query-to-MBR distance is an O(regions) relaxation of Keogh's
// region MINDIST built from the query's prefix sums (feature_map.cc). PLA uses
// its own (a_i, b_i) MBR with the Chen et al. distance; CHEBY boxes its
// coefficients, where plain point-to-box distance is a true bound.

#include <vector>

#include "reduction/representation.h"
#include "reduction/representation_store.h"

namespace sapla {

/// \brief Converts representations of one (method, M, n) configuration to
/// feature vectors and computes query-to-MBR lower bounds.
class FeatureMapper {
 public:
  /// \param method reduction method of every representation to be mapped.
  /// \param m coefficient budget (fixes the segment count).
  /// \param n original series length.
  FeatureMapper(Method method, size_t m, size_t n);

  /// Feature-space dimensionality.
  size_t dims() const { return dims_; }

  /// An axis-aligned feature box (lo == hi for point features).
  struct Box {
    std::vector<double> lo, hi;
  };

  /// Maps one representation view (must match method/M/n) to its feature
  /// box. For the APCA-family mapping the value dims span the segment's RAW
  /// min/max (Keogh's construction — this is what makes the region MINDIST
  /// a true lower bound), so the raw series is required; PLA and CHEBY
  /// produce point boxes from the coefficients alone. Both corpus layouts
  /// (columnar store slices and borrowed Representations) go through this
  /// one implementation, so the boxes — and therefore the built trees —
  /// are identical between them.
  Box MapBox(const RepView& rep, const std::vector<double>& raw) const;

  /// Convenience over the AoS interchange type.
  Box MapBox(const Representation& rep, const std::vector<double>& raw) const {
    return MapBox(RepView::Of(rep), raw);
  }

  /// What MinDist needs of one query, prepared once per query by
  /// PrepareQuery: its reduction (the PLA, CHEBY and DFT bounds) and the
  /// raw query's prefix sums (the APCA-family region bound).
  struct Query {
    RepView rep;
    /// prefix[t] = q[0] + ... + q[t-1], summed left to right.
    std::vector<double> prefix;
    /// Bound on the rounding error of any prefix[b] - prefix[a].
    double sum_error = 0.0;
  };

  /// Prepares `raw` (the query, of length n) and its reduction `rep` for
  /// MinDist. O(n). `rep` must stay valid while the result is used.
  Query PrepareQuery(const std::vector<double>& raw, const RepView& rep) const;

  /// Lower-bound distance from a prepared query to the axis-aligned box
  /// [lo, hi]. Independent of n: O(dims), plus for the APCA family the
  /// overlap of the regions' time spans.
  double MinDist(const Query& query, const std::vector<double>& lo,
                 const std::vector<double>& hi) const;

 private:
  double ApcaRegionBound(const Query& q, const std::vector<double>& lo,
                         const std::vector<double>& hi) const;
  double PlaBoxMinDist(const RepView& q, const std::vector<double>& lo,
                       const std::vector<double>& hi) const;

  Method method_;
  size_t n_;
  size_t num_segments_;
  size_t dims_;
};

/// Minimum of the convex quadratic A*x^2 + B*x*y + C*y^2 over the rectangle
/// [xlo, xhi] x [ylo, yhi] (used by the PLA MBR distance). Exposed for
/// testing.
double ConvexQuadMinOnBox(double A, double B, double C, double xlo, double xhi,
                          double ylo, double yhi);

}  // namespace sapla

#endif  // SAPLA_INDEX_FEATURE_MAP_H_
