#ifndef PAYGO_SCHEMA_FEATURE_POSTINGS_H_
#define PAYGO_SCHEMA_FEATURE_POSTINGS_H_

/// \file feature_postings.h
/// \brief The inverted feature index: for each feature, the ascending ids
/// of the schemas that set it, plus each schema's popcount.
///
/// Two schemas that share no feature have Jaccard 0, so the only schemas a
/// vector can be similar to are the ones on its features' posting lists.
/// Counting how often each id appears on those lists gives |a AND b|, and
/// with the popcounts every nonzero Jaccard follows as
/// inter / (|a| + |b| - inter): the same two integers that
/// DynamicBitset::Jaccard divides, so the value is bitwise the kernel's.
/// NeighborGraph::Build enumerates candidate pairs from this index, and
/// IntegrationSystem::AddSchema reads a newcomer's whole similarity row
/// from it (JaccardRow). That costs the total length of the lists the
/// newcomer touches, not the corpus size times the feature width.
///
/// Lists are immutable and shared. Append copies only the lists of the
/// new schema's features and shares the rest, so copying an index copies
/// handles and an arrival leaves the index of an older snapshot untouched.
/// On the dense path the index is the whole standing similarity substrate:
/// no pair similarity is kept between clustering runs.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/bitset.h"

namespace paygo {

/// \brief One nonzero cell of a sparse similarity row.
struct JaccardEntry {
  std::uint32_t id;  ///< Schema id.
  double sim;        ///< DynamicBitset::Jaccard(query, schema id), > 0.
};

/// \brief Per-feature schema-id lists over a corpus of feature vectors.
class FeaturePostings {
 public:
  FeaturePostings() = default;

  /// Indexes \p features: schema i is features[i].
  explicit FeaturePostings(std::span<const DynamicBitset> features);

  /// Number of indexed schemas.
  std::size_t num_schemas() const { return popcounts_.size(); }
  /// Number of features the index has a slot for.
  std::size_t dim() const { return lists_.size(); }

  /// Ascending ids of the schemas that set \p feature (empty past dim()).
  std::span<const std::uint32_t> List(std::size_t feature) const {
    if (feature >= lists_.size() || lists_[feature] == nullptr) return {};
    return *lists_[feature];
  }

  /// Number of features schema \p id sets.
  std::uint32_t Popcount(std::uint32_t id) const { return popcounts_[id]; }

  /// Exact Jaccard of \p query against every indexed schema, ascending by
  /// id, exact zeros omitted: entry (id, sim) has
  /// sim == DynamicBitset::Jaccard(query, features[id]) bit for bit. Costs
  /// the total length of the query's lists (added to the
  /// paygo.arrival.postings_visited counter) plus a sort of the touched
  /// ids.
  std::vector<JaccardEntry> JaccardRow(const DynamicBitset& query) const;

  /// Indexes \p features as schema num_schemas(). Only the lists of its set
  /// bits are copied (with the new id appended); every other list stays
  /// shared with copies of this index.
  void Append(const DynamicBitset& features);

  /// Bytes of the index by content: the list handles, every id and every
  /// popcount (shared lists count in full, spare capacity not at all), so
  /// an appended index and a scratch build of the same features agree.
  std::size_t MemoryBytes() const;

 private:
  using IdList = std::vector<std::uint32_t>;
  std::vector<std::shared_ptr<const IdList>> lists_;  ///< null = empty list.
  std::vector<std::uint32_t> popcounts_;
};

}  // namespace paygo

#endif  // PAYGO_SCHEMA_FEATURE_POSTINGS_H_
