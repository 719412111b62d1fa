#ifndef PAYGO_MEDIATE_MEDIATOR_H_
#define PAYGO_MEDIATE_MEDIATOR_H_

/// \file mediator.h
/// \brief Automatic probabilistic schema mediation and mapping.
///
/// Reimplements the substrate of Das Sarma et al. [8] that the thesis plugs
/// its clustering into (Section 4.4):
///
///  1. collect the attribute names of a domain's schemas, weighted by the
///     schemas' membership probabilities;
///  2. drop attributes whose (weighted) schema frequency is below a
///     frequency threshold (the tractability device Section 6.3 studies);
///  3. cluster the surviving attribute names by t_sim-based name similarity
///     — each cluster is one mediated attribute;
///  4. for every member schema, emit a probabilistic mapping: ambiguous
///     source attributes (similar to several mediated attributes) fan out
///     into alternative mappings with probabilities proportional to name
///     similarity.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mediate/mediated_schema.h"
#include "mediate/probabilistic_mapping.h"
#include "schema/corpus.h"
#include "text/term_similarity.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace paygo {

/// \brief Options of schema mediation.
struct MediatorOptions {
  /// Attributes must appear in at least this fraction of the domain's
  /// (membership-weighted) schemas to enter the mediated schema ([8] uses
  /// 0.1; Section 6.3 sweeps this).
  double attr_freq_threshold = 0.1;
  /// Two attribute names belong to the same mediated attribute when their
  /// name similarity reaches this (single-link over attribute names).
  double attr_sim_threshold = 0.65;
  /// Term-similarity threshold used inside attribute-name similarity
  /// (same role as tau_t_sim in Algorithm 1).
  double tau_t_sim = 0.8;
  /// Which t_sim to use for attribute-name similarity.
  TermSimilarityKind similarity_kind = TermSimilarityKind::kLcs;
  /// Ambiguity threshold: a source attribute is also considered for a
  /// mediated attribute when its similarity is within this factor of its
  /// best match (mirrors theta of Algorithm 3).
  double ambiguity_ratio = 0.9;
  /// Cap on the number of alternative mappings kept per schema (candidate
  /// lists are trimmed, best-first, until the product fits); positive.
  std::size_t max_mappings_per_schema = 8;

  bool operator==(const MediatorOptions&) const = default;
};

/// \brief One frequent attribute of a domain, as collected by the first
/// two mediation steps (shared by the deterministic and probabilistic
/// mediated-schema builders).
struct DomainAttribute {
  /// Canonical name (the clustering/mapping key).
  std::string canonical;
  /// First raw spelling seen (the display name).
  std::string display;
  /// Tokenized display name.
  std::vector<std::string> terms;
  /// Membership-weighted count of schemas containing the attribute.
  double weight = 0.0;
};

/// \brief Everything a mediation keeps to be extended by later members:
/// the attribute tally before the frequency threshold, and the name
/// similarity edges among the names that passed it. Immutable once built.
struct AttributeTally {
  /// The options the mediation was built with.
  MediatorOptions options;
  /// Sum of the members' probabilities, added in member order.
  double total_weight = 0.0;
  /// Every canonical name of the members, sorted by canonical name, with
  /// its weight summed in member order. `terms` is filled only for the
  /// names that pass the frequency threshold ("kept" names).
  std::vector<DomainAttribute> names;
  /// Pairs (i, j), i < j, of kept names (indices into `names`) whose
  /// attribute-name similarity reaches attr_sim_threshold; sorted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

  /// Whether names[i] passes the frequency threshold.
  bool Kept(std::size_t i) const {
    return total_weight > 0.0 &&
           names[i].weight / total_weight >= options.attr_freq_threshold;
  }
  /// Heap bytes owned by the tally (the object itself excluded), counted
  /// by content: element counts, not vector capacities.
  std::size_t HeapBytes() const;
};

/// \brief The mediation output for one domain.
struct DomainMediation {
  MediatedSchema mediated;
  /// One probabilistic mapping per member schema, in member order.
  std::vector<ProbabilisticMapping> mappings;
  /// The members (schema id, membership probability) the mediation was
  /// built for, mirroring DomainModel::SchemasOf.
  std::vector<std::pair<std::uint32_t, double>> members;
  /// The tally the mediation was built from; null for a mediation not made
  /// by the Mediator (which then cannot be extended).
  std::shared_ptr<const AttributeTally> tally;

  /// Bytes of this mediation: the object itself plus the heap bytes of
  /// its mediated schema, mappings, members and tally, counted by content
  /// (element counts, not vector capacities), so a mediation extended by
  /// arrivals weighs what the same mediation built from empty does.
  std::size_t MemoryBytes() const;
};

/// \brief Attribute-name similarity: Dice coefficient over term sets with
/// t_sim-based soft matching (terms count as shared when t_sim >= tau).
double AttributeNameSimilarity(const std::vector<std::string>& terms_a,
                               const std::vector<std::string>& terms_b,
                               const TermSimilarity& sim, double tau_t_sim);

/// Collects the domain's attributes with membership-weighted frequencies
/// and applies the frequency threshold; sorted by canonical name. Validates
/// \p members against \p corpus.
Result<std::vector<DomainAttribute>> CollectFrequentAttributes(
    const SchemaCorpus& corpus, const Tokenizer& tokenizer,
    const std::vector<std::pair<std::uint32_t, double>>& members,
    double attr_freq_threshold);

/// \brief Builds mediated schemas and probabilistic mappings.
///
/// One engine serves builds and arrivals: BuildForDomain extends an empty
/// mediation. Counters (paygo.mediate.*): domains_extended and
/// domains_rebuilt count Extend calls on a non-empty base that did or did
/// not take the extension path; mappings_reused and mappings_computed
/// count member mappings copied from the base or computed; name_sims
/// counts attribute-name similarity evaluations, and term_sims the t_sim
/// kernel calls behind them. Each Extend call interns the terms it scores
/// into a local TermTable (mediate/term_table.h) and evaluates t_sim once
/// per ordered term pair, so term_sims is at most the square of the call's
/// distinct terms; an Extend that scores no name pair interns nothing.
class Mediator {
 public:
  /// Mediation for one domain given its members (schema id, probability).
  static Result<DomainMediation> BuildForDomain(
      const SchemaCorpus& corpus, const Tokenizer& tokenizer,
      std::vector<std::pair<std::uint32_t, double>> members,
      const MediatorOptions& options = {});

  /// The mediation BuildForDomain(corpus, tokenizer, members, options)
  /// returns, bitwise, computed from \p base when \p base was built by the
  /// Mediator with equal \p options and \p members is base.members (bitwise,
  /// probabilities included) plus appended entries. Then only the appended
  /// members are tallied, only pairs involving a newly kept name are
  /// scored, and when the mediated schema keeps its (name, members)
  /// sequence only the appended members are mapped. Otherwise every member
  /// is folded into an empty tally. \p base must come from the same
  /// tokenizer and from a corpus whose schemas at base's ids are unchanged
  /// (a corpus that only grew).
  static Result<DomainMediation> Extend(
      const DomainMediation& base, const SchemaCorpus& corpus,
      const Tokenizer& tokenizer,
      std::vector<std::pair<std::uint32_t, double>> members,
      const MediatorOptions& options = {});
};

}  // namespace paygo

#endif  // PAYGO_MEDIATE_MEDIATOR_H_
