#ifndef PAYGO_CLUSTER_INCREMENTAL_H_
#define PAYGO_CLUSTER_INCREMENTAL_H_

/// \file incremental.h
/// \brief Incremental schema arrival — the pay-as-you-go loop.
///
/// A pay-as-you-go system "starts providing services without having to
/// wait until full and precise integration takes place" (Section 1.1) and
/// is refined as it gets used. New data sources keep appearing; re-running
/// Algorithms 1-3 from scratch on every arrival is wasteful. An arrival is
/// folded into the existing domain model instead:
///
///  * the schema is featurized against the frozen lexicon (terms never
///    seen before cannot contribute — their fraction is reported as drift);
///  * its s_sim row against the existing schemas is read from the
///    inverted feature index (FeaturePostings::JaccardRow): only schemas
///    sharing a feature with it are touched, and every other s_sim is
///    exactly 0;
///  * its similarity to every existing cluster is computed exactly as in
///    Algorithm 3 (average s_sim to the cluster's members) from that sparse
///    row — absent entries are scattered back as 0.0, so each cluster sum
///    adds the same doubles in the same member order as a dense scan;
///  * it joins every cluster passing the tau/theta tests with normalized
///    probabilities, or opens a fresh singleton domain. The grown model
///    (DomainModel::WithArrival) appends the newcomer's membership row to
///    the block the old model's rows live in and replaces only the rows
///    of the domains it joins; every other cluster and member list stays
///    shared, so the arrival copies no row of the model.
///
/// IntegrationSystem::AddSchema runs these steps (FeaturizeArrival, its
/// shared index, AssignArrival) and hands the one sparse row on to its
/// similarity matrix or neighbor graph.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cluster/probabilistic_assignment.h"
#include "schema/feature_postings.h"
#include "schema/feature_vector.h"
#include "schema/schema.h"
#include "text/tokenizer.h"
#include "util/bitset.h"
#include "util/status.h"

namespace paygo {

/// \brief Outcome of adding one schema.
struct IncrementalAddResult {
  /// Index the schema received (continues the corpus numbering).
  std::uint32_t schema_id = 0;
  /// (domain, probability) memberships, as Algorithm 3 would assign.
  std::vector<std::pair<std::uint32_t, double>> memberships;
  /// True when no existing cluster was similar enough and a new singleton
  /// domain was created.
  bool created_new_domain = false;
  /// Fraction of the schema's terms absent from the frozen lexicon.
  double unseen_term_fraction = 0.0;
};

/// \brief A newcomer featurized against the frozen lexicon.
struct ArrivalVector {
  DynamicBitset features;
  /// Fraction of the schema's terms absent from the frozen lexicon.
  double unseen_term_fraction = 0.0;
};

/// Tokenizes \p schema and vectorizes its terms against the frozen
/// lexicon. InvalidArgument when it has no attributes or no term survives
/// extraction.
Result<ArrivalVector> FeaturizeArrival(const Tokenizer& tokenizer,
                                       const FeatureVectorizer& vectorizer,
                                       const Schema& schema);

/// Algorithm 3 for one newcomer, id model.num_schemas(), given its exact
/// sparse s_sim row against the model's schemas (FeaturePostings::
/// JaccardRow). Returns the model grown by the newcomer: a member of every
/// qualifying domain with normalized probability and a hard member of the
/// most similar one, or the only member of a fresh singleton domain. The
/// result shares every row it does not change with \p model. Sets \p out's
/// schema_id, memberships and created_new_domain. Only tau_c_sim and theta
/// of \p options apply: an arrival with no qualifying domain always opens a
/// singleton, so strict_thesis_semantics (which decides what happens to a
/// clustered schema below tau) does not apply to it.
DomainModel AssignArrival(const DomainModel& model,
                          std::span<const JaccardEntry> row,
                          const AssignmentOptions& options,
                          IncrementalAddResult* out);

}  // namespace paygo

#endif  // PAYGO_CLUSTER_INCREMENTAL_H_
