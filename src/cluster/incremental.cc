#include "cluster/incremental.h"

#include <algorithm>

namespace paygo {

Result<ArrivalVector> FeaturizeArrival(const Tokenizer& tokenizer,
                                       const FeatureVectorizer& vectorizer,
                                       const Schema& schema) {
  if (schema.attributes.empty()) {
    return Status::InvalidArgument("schema has no attributes");
  }
  const std::vector<std::string> terms =
      tokenizer.TokenizeAll(schema.attributes);
  if (terms.empty()) {
    return Status::InvalidArgument(
        "no terms survived extraction for schema " + schema.source_name);
  }
  std::size_t unseen = 0;
  ArrivalVector out;
  out.features = vectorizer.VectorizeExternalTerms(terms, &unseen);
  out.unseen_term_fraction =
      static_cast<double>(unseen) / static_cast<double>(terms.size());
  return out;
}

DomainModel AssignArrival(const DomainModel& model,
                          std::span<const JaccardEntry> row,
                          const AssignmentOptions& options,
                          IncrementalAddResult* out) {
  const std::size_t n = model.num_schemas();
  out->schema_id = static_cast<std::uint32_t>(n);
  out->memberships.clear();
  out->created_new_domain = false;

  // s_c_sim per cluster from the sparse row. Absent entries are exact
  // zeros, so each sum adds the same doubles in the same member order as a
  // dense scan would. Ids past the model's schemas belong to no cluster.
  std::vector<double> sims(n, 0.0);
  for (const JaccardEntry& e : row) {
    if (e.id < n) sims[e.id] = e.sim;
  }
  const SharedRows<std::vector<std::uint32_t>>& clusters = model.clusters();
  double max_sim = 0.0;
  std::vector<double> sc(clusters.size(), 0.0);
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    const std::vector<std::uint32_t>& cluster = clusters[r];
    double total = 0.0;
    for (std::uint32_t j : cluster) total += sims[j];
    sc[r] = cluster.empty() ? 0.0
                            : total / static_cast<double>(cluster.size());
    max_sim = std::max(max_sim, sc[r]);
  }

  std::vector<std::uint32_t> qualifying;
  double norm = 0.0;
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    if (sc[r] < options.tau_c_sim) continue;
    if (max_sim > 0.0 && sc[r] / max_sim < 1.0 - options.theta) continue;
    qualifying.push_back(r);
    norm += sc[r];
  }

  // Home cluster: the most similar qualifying one, or a fresh singleton.
  auto home = static_cast<std::uint32_t>(clusters.size());
  if (qualifying.empty()) {
    out->memberships = {{home, 1.0}};
    out->created_new_domain = true;
  } else {
    home = qualifying[0];
    for (std::uint32_t r : qualifying) {
      if (sc[r] > sc[home]) home = r;
    }
    for (std::uint32_t r : qualifying) {
      out->memberships.emplace_back(r, sc[r] / norm);
    }
  }
  return model.WithArrival(out->memberships, home);
}

}  // namespace paygo
