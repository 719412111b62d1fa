#include "classify/naive_bayes.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "classify/conditionals_builder.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace paygo {
namespace {

/// Accumulators shared by the exhaustive and factored engines.
///
/// Over the possible worlds S' (always containing all certain schemas, any
/// subset of the uncertain ones), with per-world unnormalized weight
/// omega(S') = |S'| * Pr(D_r = S') — deliberately WITHOUT the 1/|S| of
/// Eq. 5.5, which is applied once at the very end:
///   mass = sum omega                                    == |S| * Pr(D_r)
///   t0   = sum omega / (2|S'| + 1)
///   t1   = sum omega * (1 + |S'|) / (2|S'| + 1)
///   h[i] = sum over worlds containing uncertain schema i of
///          omega / (2|S'| + 1)
/// The m-estimate conditional (Eq. 5.9 with p = 1/dim L, m = 1 + |S'|) is
/// linear in the membership indicators, so
///   Pr(F_j=1 | D_r) = (base_j * t0 + p * t1 + sum_{i: F_ij=1} h[i]) / mass
/// where base_j counts certain schemas with feature j set — every ratio
/// the 1/|S| factor would cancel out of is computed without it, so q1 is
/// bitwise independent of the corpus size (the property UpdateDomains
/// relies on to reuse unaffected domains verbatim). Only the prior
/// Pr(D_r) = mass / |S| sees the corpus size, in one multiply. Worlds with
/// |S'| = 0 carry weight 0 (Eq. 5.5), which also resolves the first
/// robustness issue of Section 5.2.
struct WorldAccumulators {
  double mass = 0.0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<double> h;  // one per uncertain schema
};

WorldAccumulators AccumulateExhaustive(const std::vector<double>& probs,
                                       std::size_t num_certain) {
  const std::size_t u = probs.size();
  WorldAccumulators acc;
  acc.h.assign(u, 0.0);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << u); ++mask) {
    double w = 1.0;
    for (std::size_t i = 0; i < u; ++i) {
      w *= (mask >> i) & 1 ? probs[i] : 1.0 - probs[i];
    }
    const std::size_t sz = num_certain + std::popcount(mask);
    if (sz == 0) continue;  // omega = 0
    const double omega = static_cast<double>(sz) * w;
    const double denom = static_cast<double>(2 * sz + 1);
    acc.mass += omega;
    acc.t0 += omega / denom;
    acc.t1 += omega * static_cast<double>(1 + sz) / denom;
    for (std::size_t i = 0; i < u; ++i) {
      if ((mask >> i) & 1) acc.h[i] += omega / denom;
    }
  }
  return acc;
}

/// Coefficients of prod_i ((1-p_i) + p_i x): coef[c] = Pr(exactly c of the
/// uncertain schemas are included).
std::vector<double> SubsetSizePoly(const std::vector<double>& probs) {
  std::vector<double> coef = {1.0};
  for (double p : probs) {
    std::vector<double> next(coef.size() + 1, 0.0);
    for (std::size_t c = 0; c < coef.size(); ++c) {
      next[c] += coef[c] * (1.0 - p);
      next[c + 1] += coef[c] * p;
    }
    coef = std::move(next);
  }
  return coef;
}

WorldAccumulators AccumulateFactored(const std::vector<double>& probs,
                                     std::size_t num_certain) {
  const std::size_t u = probs.size();
  WorldAccumulators acc;
  acc.h.assign(u, 0.0);

  const std::vector<double> coef = SubsetSizePoly(probs);
  for (std::size_t c = 0; c <= u; ++c) {
    const std::size_t sz = num_certain + c;
    if (sz == 0) continue;
    const double omega = static_cast<double>(sz) * coef[c];
    const double denom = static_cast<double>(2 * sz + 1);
    acc.mass += omega;
    acc.t0 += omega / denom;
    acc.t1 += omega * static_cast<double>(1 + sz) / denom;
  }

  // h[i]: worlds containing uncertain schema i, grouped by the count of the
  // other included uncertain schemas (leave-one-out size polynomial).
  for (std::size_t i = 0; i < u; ++i) {
    std::vector<double> rest;
    rest.reserve(u - 1);
    for (std::size_t k = 0; k < u; ++k) {
      if (k != i) rest.push_back(probs[k]);
    }
    const std::vector<double> loo = SubsetSizePoly(rest);
    for (std::size_t c = 0; c < loo.size(); ++c) {
      const std::size_t sz = num_certain + c + 1;  // +1 for schema i itself
      const double omega = static_cast<double>(sz) * probs[i] * loo[c];
      acc.h[i] += omega / static_cast<double>(2 * sz + 1);
    }
  }
  return acc;
}

/// Membership probabilities of the domain's uncertain schemas, in
/// UncertainSchemas order (the accumulation input both the full and the
/// prior-only computations share).
std::vector<double> UncertainProbs(const DomainModel& model,
                                   std::uint32_t domain,
                                   const std::vector<std::uint32_t>& uncertain) {
  std::vector<double> probs;
  probs.reserve(uncertain.size());
  for (std::uint32_t i : uncertain) {
    probs.push_back(model.Membership(i, domain));
  }
  return probs;
}

Status CheckExhaustiveBudget(std::uint32_t domain, std::size_t num_uncertain,
                             std::size_t max_uncertain_exhaustive) {
  if (num_uncertain > max_uncertain_exhaustive) {
    return Status::ResourceExhausted(
        "domain " + std::to_string(domain) + " has " +
        std::to_string(num_uncertain) +
        " uncertain schemas; exhaustive enumeration capped at " +
        std::to_string(max_uncertain_exhaustive) +
        " (use the factored engine)");
  }
  return Status::OK();
}

/// The scorer's clamp (SetDomain): keeps log q and log(1 - q)
/// finite. The exact engines apply it to their output too, so their
/// conditionals are strictly inside (0, 1) even at dim 1, where p = 1 and
/// the m-estimate can round to exactly 1.0. Clamping twice is a no-op, so
/// scores are unchanged.
double ClampQ1(double q) {
  return std::min(std::max(q, 1e-300), 1.0 - 1e-15);
}

bool InsideOpenUnit(double q) { return q > 0.0 && q < 1.0; }

}  // namespace

double DomainConditionals::Q1(std::size_t j) const {
  const auto it = std::lower_bound(exceptions.begin(), exceptions.end(), j);
  if (it == exceptions.end() || *it != j) return default_q1;
  return exception_q1[static_cast<std::size_t>(it - exceptions.begin())];
}

DomainConditionals SparsifyConditionals(double prior,
                                        std::span<const double> q1) {
  DomainConditionals out;
  out.prior = prior;
  out.dim = q1.size();
  if (q1.empty()) return out;
  // The most frequent bit pattern becomes the default.
  std::vector<std::uint64_t> sorted(q1.size());
  for (std::size_t j = 0; j < q1.size(); ++j) {
    sorted[j] = std::bit_cast<std::uint64_t>(q1[j]);
  }
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t best = sorted[0];
  std::size_t best_run = 0;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t k = i;
    while (k < sorted.size() && sorted[k] == sorted[i]) ++k;
    if (k - i > best_run) {
      best_run = k - i;
      best = sorted[i];
    }
    i = k;
  }
  out.default_q1 = std::bit_cast<double>(best);
  for (std::size_t j = 0; j < q1.size(); ++j) {
    if (std::bit_cast<std::uint64_t>(q1[j]) == best) continue;
    out.exceptions.push_back(static_cast<std::uint32_t>(j));
    out.exception_q1.push_back(q1[j]);
  }
  return out;
}

Status ValidateConditionals(
    const std::vector<DomainConditionals>& conditionals) {
  if (conditionals.empty()) return Status::OK();
  const std::size_t dim = conditionals[0].dim;
  if (dim > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("classifier dim " + std::to_string(dim) +
                                   " does not fit 32-bit feature ids");
  }
  for (std::size_t r = 0; r < conditionals.size(); ++r) {
    const DomainConditionals& c = conditionals[r];
    auto fail = [&](const std::string& msg) {
      return Status::InvalidArgument("classifier domain " + std::to_string(r) +
                                     ": " + msg);
    };
    if (c.dim != dim) {
      return fail("dim " + std::to_string(c.dim) + " differs from domain 0's " +
                  std::to_string(dim));
    }
    if (!std::isfinite(c.prior) || c.prior < 0.0) {
      return fail("prior is not finite and non-negative");
    }
    // A dim-0 row has no feature, so its default is never read.
    if (dim > 0 && !InsideOpenUnit(c.default_q1)) {
      return fail("default q1 is not inside (0, 1)");
    }
    if (c.exception_q1.size() != c.exceptions.size()) {
      return fail(std::to_string(c.exceptions.size()) + " exceptions but " +
                  std::to_string(c.exception_q1.size()) + " values");
    }
    for (std::size_t k = 0; k < c.exceptions.size(); ++k) {
      const std::uint32_t j = c.exceptions[k];
      if (j >= dim) {
        return fail("exception feature " + std::to_string(j) +
                    " out of range (dim " + std::to_string(dim) + ")");
      }
      if (k > 0 && j <= c.exceptions[k - 1]) {
        return fail("exception features not strictly ascending at " +
                    std::to_string(j));
      }
      if (!InsideOpenUnit(c.exception_q1[k])) {
        return fail("q1 of feature " + std::to_string(j) +
                    " is not inside (0, 1)");
      }
    }
  }
  return Status::OK();
}

DomainConditionals FlatConditionals(std::size_t dim) {
  DomainConditionals out;
  out.dim = dim;
  out.default_q1 = ClampQ1(dim > 0 ? 1.0 / static_cast<double>(dim) : 0.5);
  return out;
}

ConditionalsBuilder::ConditionalsBuilder(std::size_t dim)
    : support_((dim + 63) / 64, 0) {
  out_.dim = dim;
}

void ConditionalsBuilder::AddSupport(const DynamicBitset& member) {
  set_bits_.clear();
  member.AppendSetBits(&set_bits_);
  for (std::size_t j : set_bits_) {
    support_[j >> 6] |= std::uint64_t{1} << (j & 63);
  }
}

void ConditionalsBuilder::Start(double default_q1) {
  out_.default_q1 = default_q1;
  rank_.resize(support_.size());
  std::uint32_t rank = 0;
  for (std::size_t w = 0; w < support_.size(); ++w) {
    rank_[w] = rank;
    for (std::uint64_t bits = support_[w]; bits != 0; bits &= bits - 1) {
      out_.exceptions.push_back(
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
    rank += static_cast<std::uint32_t>(std::popcount(support_[w]));
  }
  out_.exception_q1.assign(out_.exceptions.size(), default_q1);
}

std::size_t ConditionalsBuilder::Position(std::size_t j) const {
  const std::uint64_t below = (std::uint64_t{1} << (j & 63)) - 1;
  return rank_[j >> 6] + std::popcount(support_[j >> 6] & below);
}

void ConditionalsBuilder::Add(const DynamicBitset& member, double weight) {
  set_bits_.clear();
  member.AppendSetBits(&set_bits_);
  for (std::size_t j : set_bits_) out_.exception_q1[Position(j)] += weight;
}

DomainConditionals ConditionalsBuilder::Finish(double prior) && {
  out_.prior = prior;
  return std::move(out_);
}

namespace {

/// Pr(D_r) from the domain's world mass (Eq. 5.5's 1/|S|).
double PriorFromMass(double mass, std::size_t num_schemas_total) {
  return mass > 0.0 ? mass / static_cast<double>(num_schemas_total) : 0.0;
}

/// One domain's conditionals (prior left 0) with its |S|-free world mass.
struct DomainFit {
  DomainConditionals conditionals;
  double mass = 0.0;
};

/// One domain's members split by certainty, with the possible-world
/// accumulators over its uncertain ones.
struct DomainWorlds {
  std::vector<std::uint32_t> certain;
  std::vector<std::uint32_t> uncertain;
  WorldAccumulators acc;
};

Result<DomainWorlds> AccumulateDomain(const DomainModel& model,
                                      std::uint32_t domain,
                                      ClassifierEngine engine,
                                      std::size_t max_uncertain_exhaustive) {
  DomainWorlds w;
  w.certain = model.CertainSchemas(domain);
  w.uncertain = model.UncertainSchemas(domain);
  const std::vector<double> probs = UncertainProbs(model, domain, w.uncertain);
  switch (engine) {
    case ClassifierEngine::kExhaustive:
      PAYGO_RETURN_NOT_OK(CheckExhaustiveBudget(domain, w.uncertain.size(),
                                                max_uncertain_exhaustive));
      w.acc = AccumulateExhaustive(probs, w.certain.size());
      break;
    case ClassifierEngine::kFactored:
      w.acc = AccumulateFactored(probs, w.certain.size());
      break;
  }
  return w;
}

Result<DomainFit> FitDomain(const DomainModel& model, std::uint32_t domain,
                            std::span<const DynamicBitset> features,
                            ClassifierEngine engine,
                            std::size_t max_uncertain_exhaustive) {
  PAYGO_TRACE_SPAN("classify.domain_conditionals");
  const std::size_t dim = features.empty() ? 0 : features[0].size();
  const double p = dim > 0 ? 1.0 / static_cast<double>(dim) : 0.5;
  PAYGO_ASSIGN_OR_RETURN(
      const DomainWorlds w,
      AccumulateDomain(model, domain, engine, max_uncertain_exhaustive));
  const WorldAccumulators& acc = w.acc;

  // Possible worlds for this domain: 2^u subsets of the uncertain schemas
  // (saturated for u >= 63). The exhaustive engine enumerates all of them;
  // the factored engine evaluates only u + 1 subset-size classes and the
  // difference is reported as "pruned".
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* enumerated =
      reg.GetCounter("paygo.classifier.subsets_enumerated");
  static Counter* pruned = reg.GetCounter("paygo.classifier.subsets_pruned");
  const std::size_t u = w.uncertain.size();
  const std::uint64_t possible =
      u >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << u);
  if (engine == ClassifierEngine::kExhaustive) {
    enumerated->Add(possible);
  } else {
    enumerated->Add(u + 1);
    pruned->Add(possible - std::min<std::uint64_t>(possible, u + 1));
  }

  DomainFit fit;
  fit.mass = acc.mass;
  if (acc.mass <= 0.0) {
    fit.conditionals = FlatConditionals(dim);
    return fit;
  }
  // Every feature no member has keeps the m-estimate's smoothing term
  // alone; the members' features are the exceptions.
  ConditionalsBuilder row(dim);
  for (std::uint32_t s : w.certain) row.AddSupport(features[s]);
  for (std::uint32_t s : w.uncertain) row.AddSupport(features[s]);
  const double inv_mass = 1.0 / acc.mass;
  const double smooth = p * acc.t1 * inv_mass;  // contribution of the p*m term
  const double slope = acc.t0 * inv_mass;       // per certain-member count
  row.Start(smooth);
  for (std::uint32_t s : w.certain) row.Add(features[s], slope);
  for (std::size_t i = 0; i < u; ++i) {
    row.Add(features[w.uncertain[i]], acc.h[i] * inv_mass);
  }
  fit.conditionals = std::move(row).Finish(0.0);
  fit.conditionals.default_q1 = ClampQ1(fit.conditionals.default_q1);
  for (double& q : fit.conditionals.exception_q1) q = ClampQ1(q);
  return fit;
}

/// The world mass of one domain: the same accumulation FitDomain runs
/// (the mass sum is independent of the other accumulators, so the bits
/// are the same).
Result<double> ComputeDomainMass(const DomainModel& model,
                                 std::uint32_t domain, ClassifierEngine engine,
                                 std::size_t max_uncertain_exhaustive) {
  PAYGO_ASSIGN_OR_RETURN(
      const DomainWorlds w,
      AccumulateDomain(model, domain, engine, max_uncertain_exhaustive));
  return w.acc.mass;
}

constexpr double kUnknownMass = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Result<DomainConditionals> ComputeDomainConditionals(
    const DomainModel& model, std::uint32_t domain,
    std::span<const DynamicBitset> features, std::size_t num_schemas_total,
    ClassifierEngine engine, std::size_t max_uncertain_exhaustive) {
  PAYGO_ASSIGN_OR_RETURN(
      DomainFit fit,
      FitDomain(model, domain, features, engine, max_uncertain_exhaustive));
  // The only place the corpus size enters (Eq. 5.5's 1/|S|).
  fit.conditionals.prior = PriorFromMass(fit.mass, num_schemas_total);
  return std::move(fit.conditionals);
}

Result<double> ComputeDomainPrior(const DomainModel& model,
                                  std::uint32_t domain,
                                  std::size_t num_schemas_total,
                                  ClassifierEngine engine,
                                  std::size_t max_uncertain_exhaustive) {
  PAYGO_ASSIGN_OR_RETURN(
      const double mass,
      ComputeDomainMass(model, domain, engine, max_uncertain_exhaustive));
  return PriorFromMass(mass, num_schemas_total);
}

Result<NaiveBayesClassifier> NaiveBayesClassifier::Build(
    const DomainModel& model, std::span<const DynamicBitset> features,
    std::size_t num_schemas_total, const ClassifierOptions& options) {
  if (features.size() != model.num_schemas()) {
    return Status::InvalidArgument(
        "feature count does not match the domain model's schema count");
  }
  if (num_schemas_total == 0) {
    return Status::InvalidArgument("num_schemas_total must be positive");
  }
  NaiveBayesClassifier clf;
  clf.options_ = options;
  clf.dim_ = features.empty() ? 0 : features[0].size();
  clf.singleton_domain_.reserve(model.num_domains());
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    PAYGO_ASSIGN_OR_RETURN(DomainFit fit,
                           FitDomain(model, r, features, options.engine,
                                     options.max_uncertain_exhaustive));
    const double prior = PriorFromMass(fit.mass, num_schemas_total);
    clf.SetDomain(r, std::move(fit.conditionals), prior, fit.mass);
    clf.singleton_domain_.push_back(model.IsSingletonDomain(r));
  }
  clf.PublishMemory();
  return clf;
}

Result<NaiveBayesClassifier> NaiveBayesClassifier::FromConditionals(
    std::vector<DomainConditionals> conditionals,
    std::vector<bool> singleton_domain, const ClassifierOptions& options) {
  PAYGO_RETURN_NOT_OK(ValidateConditionals(conditionals));
  NaiveBayesClassifier clf;
  clf.options_ = options;
  clf.singleton_domain_ = std::move(singleton_domain);
  clf.singleton_domain_.resize(conditionals.size(), false);
  clf.AdoptConditionals(std::move(conditionals));
  clf.PublishMemory();
  return clf;
}

void NaiveBayesClassifier::AdoptConditionals(
    std::vector<DomainConditionals> conditionals) {
  // All remaining query-independent work (Section 5.3): per-domain base
  // score with every feature absent, plus per-feature log-odds so a query
  // only pays for its set features.
  dim_ = conditionals.empty() ? 0 : conditionals[0].dim;
  for (std::size_t r = 0; r < conditionals.size(); ++r) {
    const double prior = conditionals[r].prior;
    SetDomain(r, std::move(conditionals[r]), prior, kUnknownMass);
  }
}

void NaiveBayesClassifier::SetDomain(std::size_t r,
                                     DomainConditionals conditionals,
                                     double prior, double mass) {
  DomainRow row;
  row.conditionals = std::move(conditionals);
  row.conditionals.prior = 0.0;
  const DomainConditionals& c = row.conditionals;
  const double dq = ClampQ1(c.default_q1);
  const double default_log1mq = std::log1p(-dq);
  row.index.assign((dim_ + 63) / 64, RankWord{});
  row.log_odds.resize(c.exceptions.size() + 1);
  row.log_odds[0] = std::log(dq) - default_log1mq;
  // sum_j log(1 - q1[j]) over every feature in ascending j, exactly the
  // dense row's addition order; the default's log1p is evaluated once.
  double s = 0.0;
  std::size_t j = 0;
  for (std::size_t k = 0; k < c.exceptions.size(); ++k) {
    for (const std::size_t e = c.exceptions[k]; j < e; ++j) s += default_log1mq;
    const double q = ClampQ1(c.exception_q1[k]);
    const double log1mq = std::log1p(-q);
    s += log1mq;
    row.log_odds[k + 1] = std::log(q) - log1mq;
    row.index[j >> 6].bits |= std::uint64_t{1} << (j & 63);
    ++j;
  }
  for (; j < dim_; ++j) s += default_log1mq;
  std::uint64_t rank = 1;
  for (RankWord& w : row.index) {
    w.rank = rank;
    rank += static_cast<std::uint64_t>(std::popcount(w.bits));
  }
  row.log1mq_sum = s;
  if (r == rows_.size()) {
    rows_.push_back(std::move(row));
    views_.emplace_back();
    bases_.push_back(0.0);
    priors_.push_back(prior);
    masses_.push_back(mass);
  } else {
    rows_.Set(r, std::move(row));
    priors_[r] = prior;
    masses_[r] = mass;
  }
  views_[r] = RowView(rows_[r]);
  RefreshBase(r);
}

void NaiveBayesClassifier::RefreshBase(std::size_t r) {
  constexpr double kNegInf = -1e300;
  const double prior = priors_[r];
  bases_[r] = (prior > 0.0 ? std::log(prior) : kNegInf) + rows_[r].log1mq_sum;
}

DomainConditionals NaiveBayesClassifier::Conditionals(
    std::uint32_t domain) const {
  DomainConditionals out = rows_[domain].conditionals;
  out.prior = priors_[domain];
  return out;
}

std::vector<DomainConditionals> NaiveBayesClassifier::conditionals() const {
  std::vector<DomainConditionals> out;
  out.reserve(rows_.size());
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    out.push_back(Conditionals(r));
  }
  return out;
}

std::size_t NaiveBayesClassifier::DomainRow::HeapBytes() const {
  return conditionals.exceptions.capacity() * sizeof(std::uint32_t) +
         conditionals.exception_q1.capacity() * sizeof(double) +
         index.capacity() * sizeof(RankWord) +
         log_odds.capacity() * sizeof(double);
}

std::size_t NaiveBayesClassifier::MemoryBytes() const {
  return rows_.MemoryBytes() + views_.capacity() * sizeof(RowView) +
         (bases_.capacity() + priors_.capacity() + masses_.capacity()) *
             sizeof(double) +
         singleton_domain_.capacity() / 8;
}

void NaiveBayesClassifier::PublishMemory() const {
  static Gauge* model_bytes =
      StatsRegistry::Global().GetGauge("paygo.classifier.model_bytes");
  model_bytes->Set(static_cast<std::int64_t>(MemoryBytes()));
}

Result<NaiveBayesClassifier> NaiveBayesClassifier::UpdateDomains(
    const NaiveBayesClassifier& base, const DomainModel& model,
    std::span<const DynamicBitset> features, std::size_t num_schemas_total,
    const std::vector<std::uint32_t>& affected_domains) {
  if (features.size() != model.num_schemas()) {
    return Status::InvalidArgument(
        "feature count does not match the domain model's schema count");
  }
  if (num_schemas_total == 0) {
    return Status::InvalidArgument("num_schemas_total must be positive");
  }
  if (model.num_domains() < base.num_domains()) {
    return Status::InvalidArgument(
        "domain model shrank across an incremental update (" +
        std::to_string(model.num_domains()) + " < " +
        std::to_string(base.num_domains()) + " domains)");
  }
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* refreshed =
      reg.GetCounter("paygo.classifier.domains_refreshed");
  static Counter* reused = reg.GetCounter("paygo.classifier.domains_reused");
  PAYGO_TRACE_SPAN("classify.update_domains");

  std::vector<bool> affected(model.num_domains(), false);
  for (std::uint32_t r : affected_domains) {
    if (r >= model.num_domains()) {
      return Status::InvalidArgument("affected domain id " +
                                     std::to_string(r) + " out of range");
    }
    affected[r] = true;
  }
  // Domains the base classifier has never seen are necessarily affected.
  for (std::size_t r = base.num_domains(); r < model.num_domains(); ++r) {
    affected[r] = true;
  }

  // Copies handles and the flat per-domain scalars, never a row.
  NaiveBayesClassifier clf = base;
  clf.singleton_domain_.resize(model.num_domains());
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    clf.singleton_domain_[r] = model.IsSingletonDomain(r);
  }
  std::uint64_t num_refreshed = 0;
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    if (affected[r]) {
      PAYGO_ASSIGN_OR_RETURN(
          DomainFit fit,
          FitDomain(model, r, features, clf.options_.engine,
                    clf.options_.max_uncertain_exhaustive));
      const double prior = PriorFromMass(fit.mass, num_schemas_total);
      clf.SetDomain(r, std::move(fit.conditionals), prior, fit.mass);
      ++num_refreshed;
      continue;
    }
    // Untouched schema set: q1 and log-odds are bitwise what Build() would
    // produce (the accumulators never see |S|), and so is the mass; only
    // the prior's 1/|S| normalizer changed.
    if (std::isnan(clf.masses_[r])) {
      PAYGO_ASSIGN_OR_RETURN(
          clf.masses_[r],
          ComputeDomainMass(model, r, clf.options_.engine,
                            clf.options_.max_uncertain_exhaustive));
    }
    clf.priors_[r] = PriorFromMass(clf.masses_[r], num_schemas_total);
    clf.RefreshBase(r);
  }
  refreshed->Add(num_refreshed);
  reused->Add(model.num_domains() - num_refreshed);
  clf.PublishMemory();
  return clf;
}

Result<NaiveBayesClassifier> NaiveBayesClassifier::WithPriors(
    const std::vector<double>& priors) const {
  if (priors.size() != num_domains()) {
    return Status::InvalidArgument(
        "WithPriors got " + std::to_string(priors.size()) +
        " priors for " + std::to_string(num_domains()) + " domains");
  }
  for (std::size_t r = 0; r < priors.size(); ++r) {
    if (!std::isfinite(priors[r]) || priors[r] < 0.0) {
      return Status::InvalidArgument("prior of domain " + std::to_string(r) +
                                     " is not finite and non-negative");
    }
  }
  NaiveBayesClassifier clf = *this;
  clf.priors_ = priors;
  for (std::size_t r = 0; r < priors.size(); ++r) clf.RefreshBase(r);
  return clf;
}

namespace {

/// The one ranking order every classify path shares: descending posterior,
/// ties broken by domain id for determinism.
bool ScoreBefore(const DomainScore& a, const DomainScore& b) {
  if (a.log_posterior != b.log_posterior) {
    return a.log_posterior > b.log_posterior;
  }
  return a.domain < b.domain;
}

}  // namespace

void NaiveBayesClassifier::ClassifyInto(const DynamicBitset& query,
                                        ClassifyScratch* scratch,
                                        std::vector<DomainScore>* out) const {
  PAYGO_TRACE_SPAN("classify.query");
  static Counter* queries =
      StatsRegistry::Global().GetCounter("paygo.classifier.queries");
  queries->Increment();
  scratch->set_bits.clear();
  query.AppendSetBits(&scratch->set_bits);
  out->clear();
  out->reserve(views_.size());
  const std::size_t* begin = scratch->set_bits.data();
  const std::size_t* end = begin + scratch->set_bits.size();
  for (std::uint32_t r = 0; r < views_.size(); ++r) {
    if (options_.skip_singleton_domains && singleton_domain_[r]) continue;
    out->push_back({r, views_[r].Score(bases_[r], begin, end)});
  }
  // std::sort is in-place (introsort) — no heap traffic.
  std::sort(out->begin(), out->end(), ScoreBefore);
}

std::vector<DomainScore> NaiveBayesClassifier::Classify(
    const DynamicBitset& query) const {
  static thread_local ClassifyScratch scratch;
  std::vector<DomainScore> scores;
  ClassifyInto(query, &scratch, &scores);
  return scores;
}

void NaiveBayesClassifier::ClassifyBatchInto(
    std::span<const DynamicBitset> queries, ClassifyScratch* scratch,
    std::vector<std::vector<DomainScore>>* out) const {
  PAYGO_TRACE_SPAN("classify.batch");
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* query_counter = reg.GetCounter("paygo.classifier.queries");
  static Counter* sweeps = reg.GetCounter("paygo.classifier.batch_sweeps");
  const std::size_t batch = queries.size();
  query_counter->Add(batch);
  sweeps->Increment();

  // Featurize once into a CSR layout: query b's set features live in
  // batch_indices[batch_offsets[b] .. batch_offsets[b+1]).
  scratch->batch_offsets.clear();
  scratch->batch_indices.clear();
  for (const DynamicBitset& q : queries) {
    scratch->batch_offsets.push_back(scratch->batch_indices.size());
    q.AppendSetBits(&scratch->batch_indices);
  }
  scratch->batch_offsets.push_back(scratch->batch_indices.size());

  // Resize without surrendering inner-vector capacity: a plain resize()
  // destroys surplus vectors on shrink, so the next larger batch would
  // reallocate them all. Park them in the scratch pool instead and pull
  // from it when growing — any batch at or below the high-water size is
  // then alloc-free. The pool's own backing array is pre-grown here so a
  // later shrink has room to park without allocating.
  if (scratch->spare_rankings.capacity() < batch) {
    scratch->spare_rankings.reserve(batch);
  }
  while (out->size() > batch) {
    scratch->spare_rankings.push_back(std::move(out->back()));
    out->pop_back();
  }
  while (out->size() < batch) {
    if (!scratch->spare_rankings.empty()) {
      out->push_back(std::move(scratch->spare_rankings.back()));
      scratch->spare_rankings.pop_back();
    } else {
      out->emplace_back();
    }
  }
  for (std::size_t b = 0; b < batch; ++b) {
    (*out)[b].clear();
    (*out)[b].reserve(views_.size());
  }

  // The struct-of-arrays sweep: domain-major, so each domain's scoring
  // row is loaded into cache once and scored against all B queries before
  // moving on — the single-query loop instead re-touches every row per
  // query. Each domain first resolves the slots of all B queries' features
  // (independent integer work, no floating-point dependency chain), then
  // sums them. Per (query, domain) the accumulation is base + ascending
  // feature adds, the exact order ClassifyInto uses, which is what makes
  // the batch path bitwise-identical to B single calls.
  const std::size_t* off = scratch->batch_offsets.data();
  const std::size_t* idx = scratch->batch_indices.data();
  const std::size_t total = scratch->batch_indices.size();
  scratch->batch_slots.resize(total);
  std::uint32_t* slots = scratch->batch_slots.data();
  for (std::uint32_t r = 0; r < views_.size(); ++r) {
    if (options_.skip_singleton_domains && singleton_domain_[r]) continue;
    const RowView row = views_[r];
    const double base = bases_[r];
    for (std::size_t k = 0; k < total; ++k) slots[k] = row.Slot(idx[k]);
    for (std::size_t b = 0; b < batch; ++b) {
      double s = base;
      for (std::size_t k = off[b]; k < off[b + 1]; ++k) {
        s += row.log_odds[slots[k]];
      }
      (*out)[b].push_back({r, s});
    }
  }
  for (std::size_t b = 0; b < batch; ++b) {
    std::sort((*out)[b].begin(), (*out)[b].end(), ScoreBefore);
  }
}

std::vector<std::vector<DomainScore>> NaiveBayesClassifier::ClassifyBatch(
    std::span<const DynamicBitset> queries) const {
  static thread_local ClassifyScratch scratch;
  std::vector<std::vector<DomainScore>> out;
  ClassifyBatchInto(queries, &scratch, &out);
  return out;
}

}  // namespace paygo
