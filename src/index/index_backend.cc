#include "index/index_backend.h"

#include <map>
#include <mutex>
#include <utility>

#include "distance/kernels.h"
#include "index/dbch_tree.h"
#include "index/feature_map.h"
#include "index/rtree.h"

namespace sapla {
namespace {

// R-tree adapter: series ids are mapped to per-method feature boxes
// (APCA raw-range MBRs, PLA coefficient boxes, CHEBY clamp) and queries
// prune with the mapper's MINDIST. Corpus access goes through
// ctx.rep_view(id), so the adapter is agnostic to the columnar-vs-AoS
// layout choice.
class RTreeBackend : public IndexBackend {
 public:
  explicit RTreeBackend(const IndexBackendContext& ctx)
      : ctx_(ctx),
        mapper_(ctx.method, ctx.m, ctx.dataset->length()),
        tree_(mapper_.dims(),
              RTree::Options{ctx.options.min_fill, ctx.options.max_fill}) {}

  std::string name() const override { return "rtree"; }

  void Insert(size_t id) override {
    StoreReadPin pin;  // keeps a cold store's frame alive through MapBox
    const FeatureMapper::Box box =
        mapper_.MapBox(ctx_.rep_view(id, &pin), ctx_.dataset->series[id].values);
    tree_.InsertBox(box.lo, box.hi, id);
  }

  void BestFirstSearch(const std::vector<double>& query_raw,
                       const RepView& query_rep, const VisitFn& visit,
                       SearchCounters* counters, double bound) const override {
    // The query's prefix sums are computed once here; every internal
    // entry's bound then costs O(regions), not O(n).
    const FeatureMapper::Query query = mapper_.PrepareQuery(query_raw, query_rep);
    // Over a quantized corpus MINDIST lower-bounds the *quantized* leaf
    // bound, which may exceed the true one by up to the store's recorded
    // slack — loosen node bounds by that much so pruning stays sound.
    const double slack = ctx_.max_lb_slack();
    tree_.BestFirstSearch(
        [&](const std::vector<double>& lo, const std::vector<double>& hi) {
          const double d = mapper_.MinDist(query, lo, hi);
          return slack > 0.0 ? std::max(0.0, d - slack) : d;
        },
        visit, counters, bound);
  }

  TreeStats ComputeStats() const override { return tree_.ComputeStats(); }

  Result<std::string> SerializeTree() const override {
    return tree_.Serialize();
  }

  Status RestoreTree(const std::string& bytes) override {
    return tree_.Restore(bytes, ctx_.dataset->size());
  }

 private:
  IndexBackendContext ctx_;
  FeatureMapper mapper_;
  RTree tree_;
};

// DBCH-tree adapter: the tree stores bare ids and measures everything with
// the method's lower-bounding distance over stored representation views.
class DbchBackend : public IndexBackend {
 public:
  explicit DbchBackend(const IndexBackendContext& ctx)
      : ctx_(ctx),
        tree_(
            [this](size_t a, size_t b) {
              // Build-time only (single-threaded Insert), so one scratch
              // amortizes the Dist_PAR endpoint buffer across the build.
              // The pair distance deliberately stays UNADJUSTED by any
              // quantization slack: it defines center/radius geometry in
              // the quantized metric space, and the query-side closure
              // below absorbs the whole slack once.
              StoreReadPin pa, pb;
              return LowerBoundDistanceView(ctx_.rep_view(a, &pa),
                                            ctx_.rep_view(b, &pb),
                                            &build_scratch_);
            },
            // SAX MINDIST violates the triangle inequality, so under sound
            // bounds its node-level pruning must stay off (dbch_tree.h).
            DbchTree::Options{ctx.options.min_fill, ctx.options.max_fill,
                              ctx.options.dbch_sound_bounds,
                              /*metric_pair_dist=*/ctx.method !=
                                  Method::kSax}) {}

  std::string name() const override { return "dbch"; }

  void Insert(size_t id) override { tree_.Insert(id); }

  void BestFirstSearch(const std::vector<double>& /*query_raw*/,
                       const RepView& query_rep, const VisitFn& visit,
                       SearchCounters* counters, double bound) const override {
    DistanceScratch scratch;  // per-query, lives on this caller's stack
    // Node bounds derive from d(query, center) - radius, both measured in
    // the quantized metric. The quantized query-center distance can
    // overstate the true leaf lower bound by at most the store's slack
    // (the build radii are consistent quantized-space measurements and
    // need no adjustment), so subtracting it here keeps pruning sound.
    const double slack = ctx_.max_lb_slack();
    tree_.BestFirstSearch(
        [&](size_t id) {
          StoreReadPin pin;
          const double d =
              LowerBoundDistanceView(query_rep, ctx_.rep_view(id, &pin), &scratch);
          return slack > 0.0 ? std::max(0.0, d - slack) : d;
        },
        visit, counters, bound);
  }

  TreeStats ComputeStats() const override { return tree_.ComputeStats(); }

  Result<std::string> SerializeTree() const override {
    return tree_.Serialize();
  }

  Status RestoreTree(const std::string& bytes) override {
    return tree_.Restore(bytes, ctx_.dataset->size());
  }

 private:
  IndexBackendContext ctx_;
  DistanceScratch build_scratch_;
  DbchTree tree_;
};

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, IndexBackendFactory>& Registry() {
  static auto* registry = [] {
    auto* r = new std::map<std::string, IndexBackendFactory>;
    (*r)["rtree"] = [](const IndexBackendContext& ctx) {
      return std::unique_ptr<IndexBackend>(new RTreeBackend(ctx));
    };
    (*r)["dbch"] = [](const IndexBackendContext& ctx) {
      return std::unique_ptr<IndexBackend>(new DbchBackend(ctx));
    };
    // Registration point for the iSAX extension (index/isax_tree.h): the
    // adapter is pending (IsaxIndex symbolizes internally and has no
    // per-method representation hook yet), so the name resolves but the
    // factory yields no backend.
    (*r)["isax"] = [](const IndexBackendContext&) {
      return std::unique_ptr<IndexBackend>();
    };
    return r;
  }();
  return *registry;
}

}  // namespace

std::string IndexKindName(IndexKind kind) {
  return kind == IndexKind::kRTree ? "rtree" : "dbch";
}

std::unique_ptr<IndexBackend> MakeIndexBackend(IndexKind kind,
                                               const IndexBackendContext& ctx) {
  // The built-in kinds always resolve unless someone replaced their
  // registration with a stub, which is a programming error.
  return std::move(MakeIndexBackendByName(IndexKindName(kind), ctx))
      .ValueOrDie();
}

void RegisterIndexBackend(const std::string& name,
                          IndexBackendFactory factory) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry()[name] = std::move(factory);
}

namespace {

std::string RegisteredNamesForError() {
  std::string out;
  for (const std::string& name : IndexBackendNames()) {
    if (!out.empty()) out += ", ";
    out += "\"" + name + "\"";
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<IndexBackend>> MakeIndexBackendByName(
    const std::string& name, const IndexBackendContext& ctx) {
  IndexBackendFactory factory;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    const auto it = Registry().find(name);
    if (it != Registry().end()) factory = it->second;
  }
  if (!factory) {
    return Status::InvalidArgument("unknown index backend \"" + name +
                                   "\"; registered backends: " +
                                   RegisteredNamesForError());
  }
  std::unique_ptr<IndexBackend> backend = factory(ctx);
  if (backend == nullptr) {
    return Status::InvalidArgument(
        "index backend \"" + name +
        "\" is registered but has no usable implementation (stub); "
        "registered backends: " +
        RegisteredNamesForError());
  }
  return backend;
}

std::vector<std::string> IndexBackendNames() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> names;
  for (const auto& [name, factory] : Registry()) names.push_back(name);
  return names;
}

}  // namespace sapla
