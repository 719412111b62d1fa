#include "cluster/incremental.h"

#include <algorithm>

namespace paygo {

IncrementalClusterer::IncrementalClusterer(
    const Tokenizer& tokenizer, const FeatureVectorizer& vectorizer,
    std::vector<DynamicBitset> features, const DomainModel& model,
    IncrementalOptions options)
    : tokenizer_(tokenizer),
      vectorizer_(vectorizer),
      options_(options),
      features_(std::move(features)) {
  clusters_ = model.clusters();
  schema_domains_.resize(model.num_schemas());
  for (std::uint32_t i = 0; i < model.num_schemas(); ++i) {
    schema_domains_[i] = model.DomainsOf(i);
  }
}

const DomainModel& IncrementalClusterer::model() const {
  if (model_dirty_) {
    cached_model_ = DomainModel::Build(clusters_, schema_domains_);
    model_dirty_ = false;
  }
  return cached_model_;
}

double IncrementalClusterer::AverageDrift() const {
  return num_added_ > 0 ? drift_sum_ / static_cast<double>(num_added_) : 0.0;
}

Result<IncrementalAddResult> IncrementalClusterer::AddSchema(
    const Schema& schema) {
  if (schema.attributes.empty()) {
    return Status::InvalidArgument("schema has no attributes");
  }
  IncrementalAddResult out;
  out.schema_id = static_cast<std::uint32_t>(features_.size());

  // Featurize against the frozen lexicon; track unseen-term drift.
  const std::vector<std::string> terms =
      tokenizer_.TokenizeAll(schema.attributes);
  if (terms.empty()) {
    return Status::InvalidArgument(
        "no terms survived extraction for schema " + schema.source_name);
  }
  std::size_t unseen = 0;
  const DynamicBitset f = vectorizer_.VectorizeExternalTerms(terms, &unseen);
  out.unseen_term_fraction =
      static_cast<double>(unseen) / static_cast<double>(terms.size());

  // s_sim against every existing schema, then s_c_sim per cluster — the
  // Algorithm 3 quantities for the newcomer.
  std::vector<double> sims(features_.size());
  for (std::size_t j = 0; j < features_.size(); ++j) {
    sims[j] = DynamicBitset::Jaccard(f, features_[j]);
  }
  double max_sim = 0.0;
  std::vector<double> sc(clusters_.size(), 0.0);
  for (std::uint32_t r = 0; r < clusters_.size(); ++r) {
    double total = 0.0;
    for (std::uint32_t j : clusters_[r]) total += sims[j];
    sc[r] = clusters_[r].empty()
                ? 0.0
                : total / static_cast<double>(clusters_[r].size());
    max_sim = std::max(max_sim, sc[r]);
  }

  std::vector<std::uint32_t> qualifying;
  double norm = 0.0;
  for (std::uint32_t r = 0; r < clusters_.size(); ++r) {
    if (sc[r] < options_.tau_c_sim) continue;
    if (max_sim > 0.0 && sc[r] / max_sim < 1.0 - options_.theta) continue;
    qualifying.push_back(r);
    norm += sc[r];
  }

  features_.push_back(f);
  schema_domains_.emplace_back();

  if (qualifying.empty()) {
    // Open a fresh singleton domain.
    const std::uint32_t new_domain =
        static_cast<std::uint32_t>(clusters_.size());
    clusters_.push_back({out.schema_id});
    schema_domains_.back() = {{new_domain, 1.0}};
    out.memberships = {{new_domain, 1.0}};
    out.created_new_domain = true;
  } else {
    // Home cluster: the most similar qualifying one.
    std::uint32_t home = qualifying[0];
    for (std::uint32_t r : qualifying) {
      if (sc[r] > sc[home]) home = r;
    }
    clusters_[home].push_back(out.schema_id);
    std::sort(clusters_[home].begin(), clusters_[home].end());
    for (std::uint32_t r : qualifying) {
      out.memberships.emplace_back(r, sc[r] / norm);
    }
    schema_domains_.back() = out.memberships;
  }

  model_dirty_ = true;
  ++num_added_;
  drift_sum_ += out.unseen_term_fraction;
  return out;
}

}  // namespace paygo
