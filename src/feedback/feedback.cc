#include "feedback/feedback.h"

#include <algorithm>
#include <cmath>

namespace paygo {
namespace {

Status ValidatePair(std::uint32_t a, std::uint32_t b) {
  if (a == b) {
    return Status::InvalidArgument(
        "feedback pair must involve two distinct schemas");
  }
  return Status::OK();
}

}  // namespace

Status FeedbackStore::RecordMustLink(std::uint32_t schema_a,
                                     std::uint32_t schema_b) {
  PAYGO_RETURN_NOT_OK(ValidatePair(schema_a, schema_b));
  must_link_.emplace_back(schema_a, schema_b);
  return Status::OK();
}

Status FeedbackStore::RecordCannotLink(std::uint32_t schema_a,
                                       std::uint32_t schema_b) {
  PAYGO_RETURN_NOT_OK(ValidatePair(schema_a, schema_b));
  cannot_link_.emplace_back(schema_a, schema_b);
  return Status::OK();
}

Status FeedbackStore::RecordCorrection(std::uint32_t schema,
                                       std::uint32_t wrong_exemplar,
                                       std::uint32_t right_exemplar) {
  if (wrong_exemplar == right_exemplar) {
    return Status::InvalidArgument(
        "correction exemplars must name different domains' schemas");
  }
  PAYGO_RETURN_NOT_OK(RecordCannotLink(schema, wrong_exemplar));
  PAYGO_RETURN_NOT_OK(RecordMustLink(schema, right_exemplar));
  return Status::OK();
}

void FeedbackStore::RecordImpression(std::uint32_t domain) {
  ++impressions_[domain];
}

void FeedbackStore::RecordClick(std::uint32_t domain) { ++clicks_[domain]; }

std::size_t FeedbackStore::clicks(std::uint32_t domain) const {
  const auto it = clicks_.find(domain);
  return it == clicks_.end() ? 0 : it->second;
}

std::size_t FeedbackStore::impressions(std::uint32_t domain) const {
  const auto it = impressions_.find(domain);
  return it == impressions_.end() ? 0 : it->second;
}

DomainModel PinFeedbackSchemas(const HacResult& clustering,
                               const DomainModel& model,
                               const FeedbackStore& store) {
  std::vector<std::vector<std::pair<std::uint32_t, double>>> sd(
      model.num_schemas());
  for (std::uint32_t i = 0; i < model.num_schemas(); ++i) {
    sd[i] = model.DomainsOf(i);
  }
  auto pin = [&](std::uint32_t schema) {
    const std::uint32_t home = clustering.ClusterOf(schema);
    sd[schema] = {{home, 1.0}};
  };
  for (const auto& [a, b] : store.must_link()) {
    pin(a);
    pin(b);
  }
  for (const auto& [a, b] : store.cannot_link()) {
    pin(a);
    pin(b);
  }
  return DomainModel::Build(clustering.clusters, std::move(sd));
}

Result<DomainModel> ReclusterWithFeedback(
    std::span<const DynamicBitset> features, const SimilarityMatrix& sims,
    HacOptions hac_options, const AssignmentOptions& assignment_options,
    const FeedbackStore& store) {
  hac_options.must_link = store.must_link();
  hac_options.cannot_link = store.cannot_link();
  PAYGO_ASSIGN_OR_RETURN(HacResult clustering,
                         Hac::Run(features, sims, hac_options));
  PAYGO_ASSIGN_OR_RETURN(
      DomainModel model,
      AssignProbabilities(sims, clustering, assignment_options));
  return PinFeedbackSchemas(clustering, model, store);
}

Result<NaiveBayesClassifier> AdjustClassifierWithClicks(
    const NaiveBayesClassifier& classifier, const FeedbackStore& store,
    const ClickAdjustOptions& options) {
  // Click feedback only reweights priors, so the WithPriors fast path
  // applies: conditionals and the log-odds rows are reused verbatim; only
  // the prior-dependent base scores are refreshed.
  std::vector<double> priors;
  priors.reserve(classifier.num_domains());
  for (std::uint32_t r = 0; r < classifier.num_domains(); ++r) {
    const double c = static_cast<double>(store.clicks(r));
    const double imp = static_cast<double>(store.impressions(r));
    const double ctr =
        (c + options.alpha) / (imp + 2.0 * options.alpha);
    priors.push_back(classifier.Prior(r) * std::pow(ctr, options.strength));
  }
  return classifier.WithPriors(priors);
}

}  // namespace paygo
