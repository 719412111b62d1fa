#ifndef PAYGO_CLASSIFY_NAIVE_BAYES_H_
#define PAYGO_CLASSIFY_NAIVE_BAYES_H_

/// \file naive_bayes.h
/// \brief Chapter 5: the naive Bayesian query classifier over probabilistic
/// domains.
///
/// For each domain D_r the classifier needs the prior Pr(D_r) and the
/// per-feature conditionals Pr(F_j = 1 | D_r). Both are expectations over
/// the possible worlds of the probabilistic domain — the subsets S' of
/// S(D_r) that contain every certain schema and any combination of the
/// uncertain ones (Equations 5.3-5.9, with the m-estimate p = 1/dim L,
/// m = 1 + |S'|). Two exact engines are provided:
///
///  * kExhaustive — the thesis's literal 2^|S-hat(D_r)| subset enumeration
///    (Section 5.3), exponential in the number of uncertain schemas;
///  * kFactored — an algebraically identical polynomial-time evaluation:
///    because the m-estimate numerator is linear in the subset-membership
///    indicators and the denominator depends only on |S'|, the expectation
///    factorizes through the subset-size distribution (a product of
///    independent Bernoullis), removing the exponential factor exactly —
///    the thesis's Chapter 7 future-work item, solved without
///    approximation.
///
/// All expensive work happens at Build() time; Classify() costs
/// O(|D| * |set features of the query|) via precomputed log-odds, each
/// looked up in O(1).
///
/// Storage is proportional to nonzeros, not to |D| * dim L. The m-estimate
/// (Eq. 5.9, p = 1/dim L) gives every feature that no member of D_r has —
/// certain or uncertain — the same conditional, so each domain keeps one
/// default q1 (and its log-odds) plus the exceptions: the union of its
/// members' set features, with their own q1 and log-odds. Scoring finds a
/// feature's value through a per-domain exception bitmap with per-word
/// prefix ranks (test the bit, then take the default or index the
/// exception values by rank + popcount), so it keeps the dense layout's
/// loop structure and addition order and is bitwise-identical to it. On
/// the many-domain web shape (~1,100 domains x ~8,000 features) a domain
/// has under ten exceptions on average, and the model takes ~2.5 MB where
/// dense rows took ~138 MB.
///
/// The conditionals Pr(F_j=1 | D_r) are evaluated from |S|-free
/// accumulators (the 1/|S| prior normalizer is applied once, at the end),
/// so q1 is bitwise independent of the corpus size. That is what makes
/// UpdateDomains() exact: when a schema arrives, only the domains whose
/// schema sets changed need their conditionals recomputed.
///
/// Each domain's |S|-independent part (its conditionals and scoring row)
/// is one immutable shared row, and the classifier caches each domain's
/// world mass, the |S|-free numerator of its prior. The |S|-dependent
/// scalars (prior, base score) live in flat per-domain arrays next to a
/// flat array of row pointers, so scoring reads a domain's row through one
/// load, as a plain vector of rows would. An update therefore shares every
/// untouched domain's row (one handle copy) and sets its prior to
/// mass / |S|, which is bitwise what the accumulation in
/// ComputeDomainPrior returns; only the touched domains are recomputed.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/probabilistic_assignment.h"
#include "util/bitset.h"
#include "util/shared_rows.h"
#include "util/status.h"

namespace paygo {

/// \brief How to evaluate the possible-world expectations at setup time.
enum class ClassifierEngine {
  /// Literal 2^u enumeration (thesis Section 5.3).
  kExhaustive,
  /// Exact polynomial-time factorization (default).
  kFactored,
};

/// \brief Options of the classifier construction.
struct ClassifierOptions {
  ClassifierEngine engine = ClassifierEngine::kFactored;
  /// The exhaustive engine refuses domains with more uncertain schemas than
  /// this (2^u subsets); Build() then returns ResourceExhausted. The
  /// factored engine has no such limit.
  std::size_t max_uncertain_exhaustive = 24;
  /// Exclude singleton domains (unclustered schemas) from ranking. The
  /// thesis keeps them; off by default.
  bool skip_singleton_domains = false;
};

/// \brief Per-domain model parameters: the prior and Pr(F_j=1|D_r), stored
/// as a default plus sorted exceptions.
///
/// Pr(F_j=1|D_r) is exception_q1[k] when j == exceptions[k], else
/// default_q1. The engines list every feature some member of the domain
/// has, so the exceptions are the union of the members' set features, and
/// every value they produce is strictly inside (0, 1).
struct DomainConditionals {
  /// Pr(D_r) (Equation 5.3). Priors need not sum to 1 across domains; the
  /// constant Pr(F_Q) is never needed for ranking (Section 5.1).
  double prior = 0.0;
  /// Feature-space dimensionality (dim L).
  std::size_t dim = 0;
  /// Pr(F_j = 1 | D_r) of every feature not in `exceptions` (Equation 5.4
  /// with the m-estimate 5.9).
  double default_q1 = 0.0;
  /// Features with their own conditional: strictly ascending, each < dim.
  std::vector<std::uint32_t> exceptions;
  /// Pr(F_j = 1 | D_r) of exceptions[k], parallel to `exceptions`.
  std::vector<double> exception_q1;

  /// Pr(F_j = 1 | D_r) for any j < dim (binary search; for inspection,
  /// persistence and tests — scoring uses the precomputed rank index).
  double Q1(std::size_t j) const;

  bool operator==(const DomainConditionals&) const = default;
};

/// Compresses a dense row of conditionals: the most frequent value (ties
/// go to the smallest bit pattern) becomes the default and every other
/// feature an exception. Scores are bitwise-identical to the dense row's
/// whatever the default, since each feature keeps its value.
/// Used to read dense (v1/v2) snapshots and by benches that synthesize
/// dense rows.
DomainConditionals SparsifyConditionals(double prior,
                                        std::span<const double> q1);

/// Checks conditionals arriving from outside the engines (persisted or
/// synthesized): all rows share one dim < 2^32; exceptions are strictly
/// ascending and < dim, with one value each; every q1 (default and
/// exception) is finite and strictly inside (0, 1); priors are finite and
/// non-negative. Returns InvalidArgument naming the first offending
/// domain otherwise.
Status ValidateConditionals(
    const std::vector<DomainConditionals>& conditionals);

/// \brief One ranked classification answer.
struct DomainScore {
  std::uint32_t domain = 0;
  /// log Pr(F_Q | D_r) + log Pr(D_r) (unnormalized log posterior).
  double log_posterior = 0.0;
};

/// \brief Reusable scratch for the zero-allocation classify paths.
///
/// Holds the query set-bit extraction buffers (single query, and the CSR
/// layout the batch sweep uses). Every buffer grows to its high-water mark
/// and is then reused, so a caller that keeps one scratch per thread pays
/// zero heap allocations in steady state (tests/zero_alloc_test.cc proves
/// it with a counting operator new). Not thread-safe: one scratch per
/// thread — Classify/ClassifyBatch keep a thread_local one internally.
struct ClassifyScratch {
  /// Set feature indices of the current single query.
  std::vector<std::size_t> set_bits;
  /// CSR set-bit layout of a batch: query b's set features are
  /// batch_indices[batch_offsets[b] .. batch_offsets[b+1]).
  std::vector<std::size_t> batch_offsets;
  std::vector<std::size_t> batch_indices;
  /// Warm ranking vectors parked here when a batch shrinks, reclaimed when
  /// it grows again — ClassifyBatchInto never destroys an inner vector's
  /// capacity, so any batch at or below the high-water size is alloc-free.
  std::vector<std::vector<DomainScore>> spare_rankings;
  /// The current domain's log-odds slot of every batch_indices entry.
  std::vector<std::uint32_t> batch_slots;
};

/// \brief The query classifier. Build once, classify many times.
class NaiveBayesClassifier {
 public:
  /// Builds the classifier from the domain model and the schema feature
  /// vectors (corpus order). \p num_schemas_total is |S| (Equation 5.5).
  static Result<NaiveBayesClassifier> Build(
      const DomainModel& model, std::span<const DynamicBitset> features,
      std::size_t num_schemas_total, const ClassifierOptions& options = {});

  /// Wraps externally computed conditionals (the approximate engines of
  /// approx_classifier.h, restored snapshots). \p singleton_domain flags
  /// which domains are singletons, honored when skip_singleton_domains is
  /// set. Returns InvalidArgument unless ValidateConditionals accepts
  /// \p conditionals.
  static Result<NaiveBayesClassifier> FromConditionals(
      std::vector<DomainConditionals> conditionals,
      std::vector<bool> singleton_domain, const ClassifierOptions& options);

  /// Incremental refresh: a classifier for \p model where only the domains
  /// in \p affected_domains (plus any domains \p base does not cover yet)
  /// have their conditionals recomputed; every other domain shares \p
  /// base's row (conditionals and precomputed log-odds) and has its prior
  /// set to its cached world mass over the new \p num_schemas_total (a
  /// base built by FromConditionals has no masses yet; each is accumulated
  /// from \p model on first use and kept in the result). Exact:
  /// the factored engine makes each domain's conditionals depend only on
  /// its own membership rows and its members' feature vectors, so the
  /// result is bit-identical to Build() over the same inputs. Domains must
  /// never shrink ids across updates (the incremental clusterer only
  /// appends); \p affected_domains must list every domain whose schema set
  /// or membership probabilities changed.
  static Result<NaiveBayesClassifier> UpdateDomains(
      const NaiveBayesClassifier& base, const DomainModel& model,
      std::span<const DynamicBitset> features,
      std::size_t num_schemas_total,
      const std::vector<std::uint32_t>& affected_domains);

  /// A copy of this classifier with per-domain priors replaced by
  /// \p priors. Conditionals and log-odds are reused verbatim; only the
  /// prior-dependent base scores are recomputed — the implicit-feedback
  /// fast path. Returns InvalidArgument unless priors.size() equals
  /// num_domains() and every prior is finite and non-negative.
  Result<NaiveBayesClassifier> WithPriors(
      const std::vector<double>& priors) const;

  /// Ranks all domains for the query feature vector, descending by
  /// posterior. Ties broken by domain id for determinism.
  std::vector<DomainScore> Classify(const DynamicBitset& query) const;

  /// The zero-allocation flavor of Classify: ranks into \p *out (cleared
  /// first, capacity reused) using \p *scratch for the set-bit buffer.
  /// Steady state — same classifier, reused buffers — performs zero heap
  /// allocations. Bitwise-identical to Classify (same accumulation order).
  void ClassifyInto(const DynamicBitset& query, ClassifyScratch* scratch,
                    std::vector<DomainScore>* out) const;

  /// Ranks B queries in one struct-of-arrays sweep: the loop order is
  /// domain-major, so each domain's scoring row streams through cache
  /// ONCE for all B queries instead of once per query. Output is
  /// bitwise-identical (EXPECT_EQ on doubles, not near) to B independent
  /// Classify calls — per (query, domain) the scored features are summed
  /// in the same ascending order onto the same base. results[b] is the
  /// ranking of queries[b].
  std::vector<std::vector<DomainScore>> ClassifyBatch(
      std::span<const DynamicBitset> queries) const;

  /// Zero-allocation flavor of ClassifyBatch: rankings go into \p *out
  /// (resized to queries.size(); inner vectors cleared, capacity reused —
  /// shrinking batches park surplus vectors in the scratch rather than
  /// freeing them). Steady state at or below the high-water batch size
  /// performs zero heap allocations.
  void ClassifyBatchInto(std::span<const DynamicBitset> queries,
                         ClassifyScratch* scratch,
                         std::vector<std::vector<DomainScore>>* out) const;

  /// Number of domains the classifier covers.
  std::size_t num_domains() const { return priors_.size(); }
  /// Feature-space dimensionality.
  std::size_t dim() const { return dim_; }

  /// Pr(D_r) — for tests and inspection.
  double Prior(std::uint32_t domain) const { return priors_[domain]; }
  /// Pr(F_j = 1 | D_r) — for tests and inspection.
  double FeatureProb(std::uint32_t domain, std::size_t j) const {
    return rows_[domain].conditionals.Q1(j);
  }

  /// True when this classifier and \p other hold domain \p domain's
  /// conditionals and scoring row in one shared object (UpdateDomains and
  /// WithPriors share the rows they do not recompute).
  bool SharesDomainRow(const NaiveBayesClassifier& other,
                       std::uint32_t domain) const {
    return rows_.handle(domain) == other.rows_.handle(domain);
  }

  /// Heap bytes held by the model: conditionals, scoring rows and the
  /// per-domain scalars. Build, FromConditionals and UpdateDomains publish
  /// it as the gauge paygo.classifier.model_bytes. O(1).
  std::size_t MemoryBytes() const;

  /// A copy of domain \p domain's conditionals, prior included. O(row).
  DomainConditionals Conditionals(std::uint32_t domain) const;
  /// A copy of every domain's conditionals, priors included (for
  /// persistence). O(model): the classifier keeps them in shared
  /// per-domain rows, not in one vector; compare one domain through
  /// Conditionals(r).
  std::vector<DomainConditionals> conditionals() const;
  /// Per-domain singleton flags, as passed at construction.
  const std::vector<bool>& singleton_domains() const {
    return singleton_domain_;
  }
  /// The options the classifier was built with.
  const ClassifierOptions& options() const { return options_; }

 private:
  /// Exception bitmap word j/64 with its rank.
  struct RankWord {
    std::uint64_t bits = 0;
    /// 1 + the number of exceptions in the words before this one.
    std::uint64_t rank = 0;
  };

  /// One domain's |S|-independent part, immutable and shared: its
  /// conditionals (prior left 0; priors_ holds it) and precomputed scoring
  /// terms. score(Q) = base + sum over set features j of log_odds(j), with
  /// base = log prior + log1mq_sum (the cached sum_j log(1 - q1[j])) and
  /// log_odds(j) = log q1[j] - log(1 - q1[j]). `log_odds` holds the
  /// default's log-odds in slot 0 and exception k's in slot k + 1, so
  /// log_odds(j) = log_odds[Slot(j)] with Slot(j) = 0 when bit j of the
  /// exception bitmap is clear, else the word's rank plus the popcount of
  /// its set bits below j.
  struct DomainRow {
    DomainConditionals conditionals;
    /// Kept apart from base so a prior-only change (incremental arrivals
    /// rescale every prior; click feedback reweights them) refreshes base
    /// without the O(dim) log evaluations.
    double log1mq_sum = 0.0;
    std::vector<RankWord> index;
    std::vector<double> log_odds;

    std::size_t HeapBytes() const;
  };

  /// A scoring row's lookup arrays. Kept in a flat per-domain array, so
  /// the scoring loops reach a domain's row in one load.
  struct RowView {
    const RankWord* index = nullptr;
    const double* log_odds = nullptr;

    RowView() = default;
    explicit RowView(const DomainRow& row)
        : index(row.index.data()), log_odds(row.log_odds.data()) {}

    /// Slot(j) in O(1). Only the integer slot branches, never a double,
    /// so a caller's running sum stays in a register.
    std::uint32_t Slot(std::size_t j) const {
      const RankWord& w = index[j >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (j & 63);
      std::uint64_t slot = 0;
      if ((w.bits & bit) != 0) {
        slot = w.rank + static_cast<std::uint64_t>(
                            std::popcount(w.bits & (bit - 1)));
      }
      return static_cast<std::uint32_t>(slot);
    }

    /// base + the log-odds of features [begin, end), added in order.
    double Score(double base, const std::size_t* begin,
                 const std::size_t* end) const {
      double s = base;
      for (const std::size_t* p = begin; p != end; ++p) s += log_odds[Slot(*p)];
      return s;
    }
  };

  NaiveBayesClassifier() = default;
  /// Adopts \p conditionals (priors into priors_, masses unknown) and
  /// precomputes every row.
  void AdoptConditionals(std::vector<DomainConditionals> conditionals);
  /// Installs domain r's row (r <= num rows: replace or append) with
  /// \p conditionals (prior ignored), \p prior and world \p mass. The single
  /// canonical per-domain precompute: Build, FromConditionals and
  /// UpdateDomains all go through it, which keeps them bit-identical.
  void SetDomain(std::size_t r, DomainConditionals conditionals, double prior,
                 double mass);
  /// bases_[r] from the domain's prior and cached log1mq_sum.
  void RefreshBase(std::size_t r);
  /// Publishes MemoryBytes() on the model-bytes gauge.
  void PublishMemory() const;

  ClassifierOptions options_;
  std::size_t dim_ = 0;
  SharedRows<DomainRow> rows_;
  // Flat per-domain arrays, indexed by domain id.
  std::vector<RowView> views_;  ///< rows_[r]'s lookup arrays.
  std::vector<double> bases_;   ///< log prior + log1mq_sum.
  std::vector<double> priors_;
  /// World mass: |S| * prior as the engines accumulate it, independent of
  /// |S|. NaN when unknown (conditionals given without their model).
  std::vector<double> masses_;
  std::vector<bool> singleton_domain_;
};

/// Computes the exact per-domain conditionals for one domain. Exposed for
/// tests (the exhaustive/factored agreement property) and the perf bench.
Result<DomainConditionals> ComputeDomainConditionals(
    const DomainModel& model, std::uint32_t domain,
    std::span<const DynamicBitset> features, std::size_t num_schemas_total,
    ClassifierEngine engine, std::size_t max_uncertain_exhaustive);

/// Computes only Pr(D_r) for one domain — the cheap O(|S-hat|^2) slice of
/// ComputeDomainConditionals, accumulated through the identical loop so
/// the result is bit-identical to the full computation's prior. Equal to
/// the world mass the classifier caches per domain, divided by
/// \p num_schemas_total (0 when the mass is not positive).
Result<double> ComputeDomainPrior(const DomainModel& model,
                                  std::uint32_t domain,
                                  std::size_t num_schemas_total,
                                  ClassifierEngine engine,
                                  std::size_t max_uncertain_exhaustive);

}  // namespace paygo

#endif  // PAYGO_CLASSIFY_NAIVE_BAYES_H_
