#include "st/knn.h"

#include <algorithm>

namespace stix::st {
namespace {

constexpr double kInitialRadiusM = 250.0;
constexpr int kMaxExpansions = 16;

// Keeps `best` sorted ascending by distance with at most k entries; a
// candidate no closer than the current k-th is dropped without copying.
void OfferCandidate(Neighbor candidate, size_t k, std::vector<Neighbor>* best) {
  if (best->size() >= k && candidate.distance_m >= best->back().distance_m) {
    return;
  }
  const auto pos = std::upper_bound(
      best->begin(), best->end(), candidate.distance_m,
      [](double d, const Neighbor& n) { return d < n.distance_m; });
  best->insert(pos, std::move(candidate));
  if (best->size() > k) best->pop_back();
}

}  // namespace

KnnResult KnnQuery(const StStore& store, geo::Point center,
                   int64_t t_begin_ms, int64_t t_end_ms,
                   const KnnOptions& options) {
  KnnResult result;
  double radius_m = kInitialRadiusM;
  if (store.bucketed()) {
    const std::optional<double> seed =
        store.MinBucketDistanceM(center, t_begin_ms, t_end_ms);
    if (seed.has_value()) radius_m = std::max(radius_m, *seed);
  }

  for (int round = 0; round <= kMaxExpansions; ++round) {
    const geo::Rect ring = geo::RectAroundPoint(center, radius_m);

    // Stream the ring probe: batches arrive per shard getMore round and
    // only the k best candidates seen so far are retained. The candidate
    // budget (if any) rides down to the shard executors as a limit, which
    // terminates the probe's index scans early.
    StCursorOptions cursor_options;
    cursor_options.batch_size = options.batch_size;
    cursor_options.limit = options.candidate_budget;
    StCursor cursor =
        store.OpenQuery(ring, t_begin_ms, t_end_ms, cursor_options);
    ++result.queries_issued;

    std::vector<Neighbor> best;
    best.reserve(options.k + 1);
    while (!cursor.exhausted()) {
      for (bson::Document& doc : cursor.NextBatch()) {
        const bson::Value* loc = doc.Get(kLocationField);
        double lon, lat;
        if (loc == nullptr || !bson::ExtractGeoJsonPoint(*loc, &lon, &lat)) {
          continue;
        }
        ++result.candidates_examined;
        OfferCandidate(
            Neighbor{std::move(doc), geo::HaversineMeters(center, {lon, lat})},
            options.k, &best);
      }
    }
    const StQueryResult probe = cursor.Summary();
    result.total_keys_examined += probe.cluster.total_keys_examined;
    if (!probe.cluster.status.ok()) {
      result.status = probe.cluster.status;
      return result;
    }

    // Final iff the k-th candidate is certainly closer than anything the
    // square might have missed (i.e. within the inscribed radius), or the
    // square already spans the whole globe / expansion budget.
    const bool covers_everything =
        ring.lo.lon <= -180.0 && ring.hi.lon >= 180.0 &&
        ring.lo.lat <= -90.0 && ring.hi.lat >= 90.0;
    const bool complete =
        best.size() >= options.k && best.back().distance_m <= radius_m;
    if (complete || covers_everything || round == kMaxExpansions) {
      result.neighbors = std::move(best);
      return result;
    }
    radius_m *= 2.0;
    ++result.expansions;
  }
  return result;
}

}  // namespace stix::st
