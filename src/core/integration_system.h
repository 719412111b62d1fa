#ifndef PAYGO_CORE_INTEGRATION_SYSTEM_H_
#define PAYGO_CORE_INTEGRATION_SYSTEM_H_

/// \file integration_system.h
/// \brief The pay-as-you-go integration system facade (Figure 3.1).
///
/// IntegrationSystem::Build runs the full offline pipeline on a schema
/// corpus: term extraction and feature vectors (Algorithm 1), hierarchical
/// agglomerative clustering (Algorithm 2), probabilistic schema-to-domain
/// assignment (Algorithm 3), per-domain schema mediation and probabilistic
/// mapping (Section 4.4), and naive-Bayes classifier construction
/// (Chapter 5). At runtime it classifies keyword queries into ranked
/// domains and answers structured queries over a domain's mediated schema
/// with probability-ranked tuples.

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classify/naive_bayes.h"
#include "classify/query_featurizer.h"
#include "cluster/hac.h"
#include "cluster/incremental.h"
#include "cluster/neighbor_graph.h"
#include "cluster/probabilistic_assignment.h"
#include "feedback/feedback.h"
#include "integrate/data_source.h"
#include "integrate/keyword_search.h"
#include "integrate/query_engine.h"
#include "mediate/mediator.h"
#include "schema/corpus.h"
#include "schema/feature_postings.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace paygo {

/// \brief Options of the full pipeline; each stage's options are the
/// corresponding module's.
struct SystemOptions {
  TokenizerOptions tokenizer;
  FeatureVectorizerOptions features;
  HacOptions hac;
  AssignmentOptions assignment;
  ClassifierOptions classifier;
  MediatorOptions mediator;
  /// Similarity substrate. Off (the default): the dense O(n^2)
  /// SimilarityMatrix. On: the sparse NeighborGraph (see neighbor_graph
  /// below), and the matrix is never allocated — the web-scale path.
  /// Everything else is the same: Build, ApplyFeedback (explicit and
  /// implicit), AddSchema, Restore and Clone all work in both modes, and
  /// clustering runs the same engine, over the graph one tau-component at
  /// a time (Hac::RunOnGraph), so the hac options must fit that path
  /// (tau_c_sim > 0, no Total Jaccard, no max_clusters). Clustering memory
  /// is then about 4 c^2 bytes for the largest tau-component c instead of
  /// 4 n^2 for the corpus; a component of more than 23,170 schemas (2 GiB)
  /// makes clustering return ResourceExhausted. Attributes shared across
  /// domains can glue components together (see bench/perf_clustering
  /// --generic-sweep). The graph holds every nonzero similarity exactly,
  /// so the clustering and domain model are bitwise those of the dense
  /// build.
  bool sparse_build = false;
  /// Neighbor-graph construction knobs for sparse_build (hot-posting
  /// handling; neither knob changes the graph). num_threads is taken from
  /// hac.num_threads, not from here.
  NeighborGraphOptions neighbor_graph;
  /// Skip mediation (clustering/classification-only deployments).
  bool build_mediation = true;
  /// Skip classifier construction.
  bool build_classifier = true;
  /// Delta write path (default): AddSchema extends the similarity matrix by
  /// one row instead of refilling it, extends the mediation of only the
  /// domains the schema joined, and refreshes the classifier incrementally
  /// via NaiveBayesClassifier::UpdateDomains — bit-identical to the full
  /// path but O(delta) instead of O(corpus). Set false to force the legacy
  /// full rebuild on every mutation (the differential-test oracle and the
  /// perf baseline).
  bool delta_mutations = true;
};

/// \brief One entry of a keyword query's answer: a relevant domain, its
/// mediated schema, and the classifier's score.
struct DomainSuggestion {
  std::uint32_t domain = 0;
  double log_posterior = 0.0;
  /// The dominant mediated-attribute names (the "structured query
  /// interface" the thesis presents to the user), empty when mediation was
  /// not built.
  std::vector<std::string> mediated_attributes;
};

/// \brief The built pay-as-you-go data integration system.
///
/// Thread-safety contract: every const member function is a pure read — no
/// lazily-filled caches, no mutable members, no const_casts anywhere on the
/// ClassifyKeywordQuery / SuggestDomains / AnswerKeywordQuery /
/// AnswerStructuredQuery / DescribeDomain paths — so any number of threads
/// may call const methods concurrently on one instance. Mutators
/// (AddSchema, ApplyFeedback, RebuildFromScratch, AttachTuples) are NOT
/// safe to run concurrently with reads on the same instance; the serving
/// layer (src/serve) handles this by mutating a Clone() and publishing it
/// with an atomic snapshot swap instead of locking readers out.
class IntegrationSystem {
 public:
  /// Runs the offline pipeline. The corpus is copied into the system.
  static Result<std::unique_ptr<IntegrationSystem>> Build(
      SchemaCorpus corpus, SystemOptions options = {});

  /// Reconstructs a system from persisted parts (see persist/model_io.h):
  /// the cheap derived state (lexicon, feature vectors, mediation) is
  /// rebuilt from the corpus under \p options; the expensive parts — the
  /// probabilistic domain model and, when non-empty, the classifier
  /// conditionals — are restored verbatim instead of recomputed.
  ///
  /// When \p lexicon_terms is non-empty the lexicon is NOT rebuilt from the
  /// corpus: it is frozen to exactly those terms (Lexicon::FromTerms) and
  /// \p features — which must then have corpus.size() entries of dimension
  /// lexicon_terms.size() — is adopted verbatim as the per-schema feature
  /// vectors (a std::vector is moved in; another system's features() is
  /// shared, not copied). This is the only correct way to restore a system
  /// whose corpus grew through AddSchema after Build: those schemas were
  /// featurized by VectorizeExternalTerms against the frozen lexicon, so
  /// re-deriving the lexicon from the grown corpus would change the
  /// feature space and silently (or loudly, via the dim check) diverge
  /// from the persisted classifier. Snapshot formats v2 and v3 persist both
  /// (see persist/model_io.h).
  ///
  /// Non-empty \p conditionals must cover every domain of \p model, pass
  /// ValidateConditionals, and share the lexicon's dim; otherwise Restore
  /// returns InvalidArgument.
  static Result<std::unique_ptr<IntegrationSystem>> Restore(
      SchemaCorpus corpus, SystemOptions options, DomainModel model,
      std::vector<DomainConditionals> conditionals,
      std::vector<std::string> lexicon_terms = {}, FeatureRows features = {});

  /// Structurally shared copy for copy-on-write snapshotting: every
  /// component — corpus, tokenizer, lexicon, similarity index/vectorizer,
  /// feature vectors, feature postings, similarity matrix or graph,
  /// clustering, domain model, classifier, per-domain mediations, attached
  /// tuple stores — sits behind a shared_ptr<const T>, so a clone copies
  /// one handle per component plus the handle arrays of the per-domain
  /// mediations and the per-schema corpus rows and tuple stores
  /// (O(#domains + #schemas) pointer copies), independent of corpus text,
  /// feature, matrix or model size. Mutators replace components
  /// copy-on-write. An arrival appends to the feature and membership
  /// blocks in place (slots no older snapshot reads; see
  /// util/shared_rows.h) and replaces only the rows it changes: the
  /// touched domains' model rows, classifier rows and mediations. Mutating
  /// the clone never disturbs concurrent readers of the original.
  std::unique_ptr<IntegrationSystem> Clone() const;

  // --- runtime: keyword queries (Chapter 5) ---

  /// Ranks domains for a raw keyword query string (e.g. "departure Toronto
  /// destination Cairo"). Requires build_classifier.
  Result<std::vector<DomainScore>> ClassifyKeywordQuery(
      std::string_view keyword_query) const;

  /// Batch flavor of ClassifyKeywordQuery: featurizes every query, then
  /// ranks all of them in one cache-resident struct-of-arrays sweep
  /// (NaiveBayesClassifier::ClassifyBatch). results[i] is bitwise-identical
  /// to ClassifyKeywordQuery(keyword_queries[i]) — the batch path is a
  /// throughput optimization, never a different answer.
  Result<std::vector<std::vector<DomainScore>>> ClassifyKeywordQueryBatch(
      std::span<const std::string> keyword_queries) const;

  /// ClassifyKeywordQuery plus each domain's mediated query interface,
  /// truncated to the top \p k domains — the search-results-page shape of
  /// Section 1.1.
  Result<std::vector<DomainSuggestion>> SuggestDomains(
      std::string_view keyword_query, std::size_t k = 3) const;

  /// \brief End-to-end keyword search (Section 1.1's motivating use case):
  /// classify the query into domains, retrieve tuples from the top
  /// domains, and rank them by domain posterior x tuple probability x
  /// value-match boost, so "departure Toronto destination Cairo" surfaces
  /// actual Toronto-Cairo rows. Requires classifier, mediation, and
  /// attached tuples.
  struct KeywordSearchAnswer {
    /// The domains consulted, with their interfaces (as SuggestDomains).
    std::vector<DomainSuggestion> consulted;
    /// Merged tuple hits, descending by score.
    std::vector<KeywordHit> hits;
  };
  Result<KeywordSearchAnswer> AnswerKeywordQuery(
      std::string_view keyword_query,
      const KeywordSearchOptions& options = {}) const;

  // --- pay-as-you-go refinement (Chapter 7) ---

  /// Folds a newly discovered source into the live system without
  /// re-clustering (the incremental path of cluster/incremental.h): the
  /// schema joins qualifying domains or opens a new singleton, the
  /// affected domains' mediations are extended, and the classifier is
  /// refreshed. The schema's similarity row is read once from the feature
  /// postings, at a cost set by the schemas that share its features; the
  /// same sparse row feeds Algorithm 3 and extends the matrix or graph.
  /// The lexicon stays frozen — the returned unseen_term_fraction reports
  /// the drift; call Build() afresh when it accumulates. Failure-atomic:
  /// on an error (for example the exhaustive classifier engine's
  /// ResourceExhausted) the system is left exactly as it was.
  Result<IncrementalAddResult> AddSchema(
      Schema schema, std::vector<std::string> labels = {});

  /// Applies accumulated user feedback: explicit corrections recluster the
  /// corpus under must-link/cannot-link constraints (and pin the corrected
  /// schemas), implicit clicks reweight the classifier priors. Mediation
  /// and classifier are rebuilt to match the refined domains.
  Status ApplyFeedback(const FeedbackStore& store);

  /// The "refine later" escape hatch: re-runs the whole offline pipeline
  /// (including a fresh lexicon, so terms incremental additions could not
  /// represent become features) over the current corpus. Attached tuple
  /// data is preserved. Call when AddSchema's drift accumulates.
  Status RebuildFromScratch();

  // --- runtime: structured queries (Section 4.4) ---

  /// Attaches tuple data for the schema at corpus index \p schema_id.
  Status AttachTuples(std::uint32_t schema_id, std::vector<Tuple> tuples);

  /// Answers a structured query over domain \p domain's mediated schema.
  /// Requires build_mediation and attached tuples.
  Result<std::vector<RankedTuple>> AnswerStructuredQuery(
      std::uint32_t domain, const StructuredQuery& query) const;

  // --- introspection ---

  const SchemaCorpus& corpus() const { return *corpus_; }
  const Tokenizer& tokenizer() const { return *tokenizer_; }
  const Lexicon& lexicon() const { return *lexicon_; }
  const FeatureVectorizer& vectorizer() const { return *vectorizer_; }
  /// Per-schema feature vectors in corpus order; converts to
  /// std::span<const DynamicBitset>. Its address identifies the snapshot.
  const FeatureRows& features() const { return *features_; }
  /// The inverted index of features(), kept for arrivals.
  const FeaturePostings& postings() const { return *substrate_.postings; }
  /// Requires has_similarities() (absent in sparse_build mode).
  const SimilarityMatrix& similarities() const { return *substrate_.sims; }
  bool has_similarities() const { return substrate_.sims != nullptr; }
  /// Requires has_neighbor_graph() (present in sparse_build mode).
  const NeighborGraph& neighbor_graph() const { return *substrate_.graph; }
  bool has_neighbor_graph() const { return substrate_.graph != nullptr; }
  /// The Algorithm 2 result of the last clustering run (Build,
  /// ApplyFeedback with explicit feedback, RebuildFromScratch). After an
  /// arrival, and on a restored system, it is the model's partition
  /// (domains().clusters()) without merges: arrivals do not re-cluster,
  /// and merge history is not persisted. That form is built on first read,
  /// so AddSchema copies no cluster rows.
  const HacResult& clustering() const;
  const DomainModel& domains() const { return *domains_; }
  /// Requires build_classifier.
  const NaiveBayesClassifier& classifier() const { return *classifier_; }
  bool has_classifier() const { return classifier_ != nullptr; }
  /// Requires build_mediation.
  const DomainMediation& mediation(std::uint32_t domain) const {
    return *mediations_[domain];
  }
  bool has_mediation() const { return !mediations_.empty(); }
  /// Bytes of every domain's mediation (DomainMediation::MemoryBytes
  /// summed; 0 without mediation), as published in paygo.mediations.bytes.
  std::size_t mediation_bytes() const { return mediation_bytes_; }
  const SystemOptions& options() const { return options_; }

  /// Overrides the worker-thread count used by subsequent rebuild-style
  /// mutations (RebuildFromScratch, ApplyFeedback, AddSchema) on this
  /// instance: 0 = hardware concurrency, 1 = serial. Results are
  /// bit-identical at any setting; the serving layer calls this on a
  /// Clone() before mutating it, so readers of the published snapshot are
  /// never affected.
  void set_num_threads(std::size_t num_threads) {
    options_.hac.num_threads = num_threads;
    options_.features.num_threads = num_threads;
  }

  /// Toggles the delta write path on this instance (see
  /// SystemOptions::delta_mutations). The differential tests and the
  /// write-path bench build one system, then flip this on Clone()s so the
  /// delta and full paths start from bit-identical state.
  void set_delta_mutations(bool enabled) {
    options_.delta_mutations = enabled;
  }

  /// Human-readable domain summary: size, top attributes, member sources.
  std::string DescribeDomain(std::uint32_t domain,
                             std::size_t max_members = 8) const;

 private:
  IntegrationSystem() = default;
  /// The similarity substrate over one feature snapshot.
  struct Substrate {
    std::shared_ptr<const FeaturePostings> postings;  ///< index of features
    std::shared_ptr<const SimilarityMatrix> sims;  ///< null in sparse_build
    std::shared_ptr<const NeighborGraph> graph;    ///< non-null iff sparse
  };
  /// Mediation (when enabled) and classifier (when enabled) for a model.
  struct Derived {
    std::vector<std::shared_ptr<const DomainMediation>> mediations;
    std::size_t mediation_bytes = 0;  ///< Sum of their MemoryBytes().
    std::shared_ptr<const NaiveBayesClassifier> classifier;
  };

  /// Indexes \p features, then builds the similarity substrate over them:
  /// the NeighborGraph in sparse_build mode, the dense SimilarityMatrix
  /// otherwise.
  Result<Substrate> BuildSimilarities(const FeatureRows& features) const;
  /// Algorithms 2 and 3 over the substrate (the one place the dense and
  /// graph paths branch), then the full derived state. A non-null
  /// \p feedback adds its explicit constraints to the HAC options and pins
  /// the schemas it names. Replaces clustering_, domains_, mediations_ and
  /// classifier_ only on success.
  Status Recluster(const FeedbackStore* feedback);
  /// Mediation and classifier for \p domains over \p corpus and
  /// \p features. With a null \p base, the full path: every domain's
  /// mediation plus a whole-model classifier build. With \p base (this
  /// system before an arrival), the delta path: only \p affected_domains
  /// and domains new since \p base are re-mediated, each by
  /// Mediator::Extend of its base mediation, every other mediation is
  /// shared and the classifier is refreshed via
  /// NaiveBayesClassifier::UpdateDomains. Bit-identical to the full path
  /// because Extend equals BuildForDomain and the factored conditionals
  /// depend only on the domain's own members. Writes nothing.
  Result<Derived> DeriveState(
      const SchemaCorpus& corpus, const FeatureRows& features,
      const DomainModel& domains, const IntegrationSystem* base,
      const std::vector<std::uint32_t>& affected_domains) const;
  /// Installs \p derived's enabled parts.
  void Adopt(Derived derived);
  /// Publishes the feature, domain-model and mediation byte gauges.
  void PublishMemory() const;

  // Every component is a shared_ptr<const T> (or, for the substrate,
  // three of them): Clone() copies the pointers, mutators replace whole
  // components copy-on-write.
  SystemOptions options_;
  std::shared_ptr<const SchemaCorpus> corpus_;
  std::shared_ptr<const Tokenizer> tokenizer_;
  std::shared_ptr<const Lexicon> lexicon_;
  std::shared_ptr<const FeatureVectorizer> vectorizer_;
  std::shared_ptr<const FeatureRows> features_;
  Substrate substrate_;
  /// clustering() when no HAC run describes the model: the model's
  /// partition, filled once, on first read, by whichever thread gets there.
  struct ModelClustering {
    std::once_flag once;
    HacResult result;
  };
  std::shared_ptr<const HacResult> clustering_;  ///< null: use the next
  std::shared_ptr<ModelClustering> model_clustering_;
  std::shared_ptr<const DomainModel> domains_;
  std::shared_ptr<const NaiveBayesClassifier> classifier_;
  std::shared_ptr<const QueryFeaturizer> query_featurizer_;
  std::vector<std::shared_ptr<const DomainMediation>> mediations_;
  /// Sum of mediations_' MemoryBytes(), kept by DeriveState in O(touched).
  std::size_t mediation_bytes_ = 0;
  std::vector<std::shared_ptr<const DataSource>> sources_;  // by schema id
};

}  // namespace paygo

#endif  // PAYGO_CORE_INTEGRATION_SYSTEM_H_
