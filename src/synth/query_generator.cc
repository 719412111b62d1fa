#include "synth/query_generator.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace paygo {

Result<QueryGenerator> QueryGenerator::Build(
    const SchemaCorpus& corpus, const Lexicon& lexicon,
    const QueryGeneratorOptions& options) {
  if (options.min_label_fraction < 0.0 || options.min_label_fraction > 1.0) {
    return Status::InvalidArgument("min_label_fraction must be in [0, 1]");
  }
  if (corpus.size() != lexicon.num_schemas()) {
    return Status::InvalidArgument(
        "lexicon was built over a different corpus");
  }

  const std::vector<std::string> all_labels = corpus.AllLabels();
  if (all_labels.empty()) {
    return Status::FailedPrecondition("corpus has no labels to target");
  }
  const std::size_t num_labels = all_labels.size();
  const std::size_t dim = lexicon.dim();

  // Freq(t, B): number of schemas of S(B) containing term t; and |S(B)|.
  // Kept sparse, as (t, Freq) ascending by t over the terms S(B) holds: a
  // zero Freq adds nothing to any sum below and no term to any
  // distribution, so every value is the dense table's, bit for bit,
  // without its labels x dim doubles.
  std::map<std::string, std::size_t> label_index;
  for (std::size_t b = 0; b < num_labels; ++b) label_index[all_labels[b]] = b;
  std::vector<std::vector<std::uint32_t>> occurrences(num_labels);
  std::vector<double> schemas_per_label(num_labels, 0.0);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (const std::string& label : corpus.labels(i)) {
      const std::size_t b = label_index.at(label);
      schemas_per_label[b] += 1.0;
      const std::vector<std::uint32_t>& terms = lexicon.schema_terms(i);
      occurrences[b].insert(occurrences[b].end(), terms.begin(), terms.end());
    }
  }
  std::vector<std::vector<std::pair<std::uint32_t, double>>> freq(num_labels);
  for (std::size_t b = 0; b < num_labels; ++b) {
    std::vector<std::uint32_t>& terms = occurrences[b];
    std::sort(terms.begin(), terms.end());
    for (std::uint32_t t : terms) {
      if (freq[b].empty() || freq[b].back().first != t) {
        freq[b].emplace_back(t, 0.0);
      }
      freq[b].back().second += 1.0;
    }
    std::vector<std::uint32_t>().swap(terms);
  }

  // Relative frequencies rel(t, B) = Freq(t,B) / sum_t' Freq(t',B), and the
  // per-term average over all labels (the denominator of lambda).
  std::vector<double> label_totals(num_labels, 0.0);
  for (std::size_t b = 0; b < num_labels; ++b) {
    for (const auto& [t, f] : freq[b]) label_totals[b] += f;
  }
  std::vector<double> avg_rel(dim, 0.0);
  for (std::size_t b = 0; b < num_labels; ++b) {
    if (label_totals[b] <= 0.0) continue;
    for (const auto& [t, f] : freq[b]) avg_rel[t] += f / label_totals[b];
  }
  for (double& v : avg_rel) v /= static_cast<double>(num_labels);

  QueryGenerator gen;
  for (std::size_t b = 0; b < num_labels; ++b) {
    if (schemas_per_label[b] <= 0.0 || label_totals[b] <= 0.0) continue;
    // Filter out terms below the frequency fraction, weight the rest by
    // normalized lambda.
    std::vector<std::pair<std::string, double>> dist;
    double norm = 0.0;
    for (const auto& [t, f] : freq[b]) {
      if (f / schemas_per_label[b] < options.min_label_fraction - 1e-12) {
        continue;
      }
      if (avg_rel[t] <= 0.0) continue;
      const double lambda = (f / label_totals[b]) / avg_rel[t];
      dist.emplace_back(lexicon.term(t), lambda);
      norm += lambda;
    }
    if (dist.empty() || norm <= 0.0) continue;
    for (auto& [term, weight] : dist) weight /= norm;
    gen.labels_.push_back(all_labels[b]);
    gen.label_weights_.push_back(schemas_per_label[b]);
    gen.term_dists_.push_back(std::move(dist));
  }
  if (gen.labels_.empty()) {
    return Status::FailedPrecondition(
        "no label has candidate terms above the frequency fraction");
  }
  return gen;
}

GeneratedQuery QueryGenerator::Generate(std::size_t num_keywords,
                                        Rng& rng) const {
  GeneratedQuery q;
  const std::size_t b = rng.NextWeighted(label_weights_);
  q.target_label = labels_[b];
  const auto& dist = term_dists_[b];
  std::vector<double> weights;
  weights.reserve(dist.size());
  for (const auto& [term, w] : dist) weights.push_back(w);
  for (std::size_t k = 0; k < num_keywords; ++k) {
    q.keywords.push_back(dist[rng.NextWeighted(weights)].first);
  }
  return q;
}

const std::vector<std::pair<std::string, double>>&
QueryGenerator::TermDistribution(const std::string& label) const {
  static const std::vector<std::pair<std::string, double>> kEmpty;
  for (std::size_t b = 0; b < labels_.size(); ++b) {
    if (labels_[b] == label) return term_dists_[b];
  }
  return kEmpty;
}

}  // namespace paygo
