#ifndef PAYGO_SYNTH_MANY_DOMAINS_H_
#define PAYGO_SYNTH_MANY_DOMAINS_H_

/// \file many_domains.h
/// \brief The web-scale corpus shape: very many small domains.
///
/// The thesis's motivation is "an order of 10 million high quality HTML
/// forms" spanning domains whose number is unknowable — i.e., the number
/// of domains grows with the corpus while each stays small. DDH is the
/// opposite shape (5 huge domains). This generator produces the web shape:
/// each pseudo-domain gets its own private vocabulary, so schemas of
/// different domains share no features — exactly the regime where the
/// neighbor graph's feature-sharing pair count is ~linear in n while the
/// dense matrix stays quadratic.

#include <cstdint>
#include <vector>

#include "schema/corpus.h"
#include "util/bitset.h"

namespace paygo {

/// \brief Options of the many-domain generator.
struct ManyDomainOptions {
  std::size_t num_domains = 100;
  /// Schemas per domain, uniform in [min, max].
  std::size_t min_schemas_per_domain = 4;
  std::size_t max_schemas_per_domain = 10;
  /// Domain vocabulary size (distinct word stems per domain).
  std::size_t words_per_domain = 8;
  /// Attributes per schema, uniform in [min, max].
  std::size_t min_attributes = 3;
  std::size_t max_attributes = 7;
  std::uint64_t seed = 97;
};

/// Generates the corpus; each schema is labeled "domain<k>".
SchemaCorpus MakeManyDomainCorpus(const ManyDomainOptions& options = {});

/// \brief Options of the direct feature-vector generator (bench scale).
///
/// MakeManyDomainCorpus runs the full text pipeline (words -> tokenizer ->
/// lexicon -> vectorizer), whose feature dimension grows linearly with the
/// number of domains — at 100k schemas the bitsets alone would be O(n^2)
/// bits. This variant emits feature vectors directly in a FIXED feature
/// space: each pseudo-domain draws a private vocabulary of feature ids
/// from the shared [0, dim) space, so bitset memory is n * dim bits and
/// expected posting-list length is (n * features_per_schema) / dim —
/// bounded, which keeps the neighbor graph's candidate-pair count ~linear
/// in n. Cross-domain vocabulary collisions are rare but possible, exactly
/// like accidental term sharing on the web.
struct ManyDomainFeatureOptions {
  std::size_t num_schemas = 10000;
  /// Average schemas per pseudo-domain (the web shape keeps this small
  /// relative to the number of domains).
  std::size_t schemas_per_domain = 32;
  /// Domain vocabulary size (distinct feature ids per domain).
  std::size_t words_per_domain = 24;
  /// Features per schema, uniform in [min, max] (capped at the domain
  /// vocabulary size).
  std::size_t min_features = 4;
  std::size_t max_features = 9;
  /// Feature-space width. 0 = auto: sized so each feature id is reused by
  /// ~4 domains on average (bounded postings at any corpus size), rounded
  /// up to a multiple of 64, with a floor of 1024.
  std::size_t dim = 0;
  std::uint64_t seed = 97;
};

/// Generates feature vectors directly (no corpus / text pipeline). All
/// vectors share the same dimension. Deterministic in the seed.
std::vector<DynamicBitset> MakeManyDomainFeatures(
    const ManyDomainFeatureOptions& options = {});

}  // namespace paygo

#endif  // PAYGO_SYNTH_MANY_DOMAINS_H_
