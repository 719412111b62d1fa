#include "mediate/probabilistic_mediated_schema.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "mediate/term_table.h"
#include "util/union_find.h"

namespace paygo {
namespace {

/// Builds a MediatedSchema from a resolved clustering of the attributes.
MediatedSchema CloseToSchema(const std::vector<DomainAttribute>& attrs,
                             UnionFind& uf) {
  std::map<std::uint32_t, std::vector<std::uint32_t>> groups;
  for (std::uint32_t i = 0; i < attrs.size(); ++i) {
    groups[uf.Find(i)].push_back(i);
  }
  MediatedSchema schema;
  for (const auto& [root, group] : groups) {
    MediatedAttribute ma;
    double best_weight = -1.0;
    for (std::uint32_t i : group) {
      ma.members.push_back(attrs[i].canonical);
      ma.weight += attrs[i].weight;
      if (attrs[i].weight > best_weight) {
        best_weight = attrs[i].weight;
        ma.name = attrs[i].display;
      }
    }
    std::sort(ma.members.begin(), ma.members.end());
    schema.attributes.push_back(std::move(ma));
  }
  std::sort(schema.attributes.begin(), schema.attributes.end(),
            [](const MediatedAttribute& a, const MediatedAttribute& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.name < b.name;
            });
  return schema;
}

/// Canonical serialization of a clustering for deduplication.
std::vector<std::vector<std::string>> SchemaKey(const MediatedSchema& s) {
  std::vector<std::vector<std::string>> key;
  for (const MediatedAttribute& a : s.attributes) key.push_back(a.members);
  std::sort(key.begin(), key.end());
  return key;
}

}  // namespace

double ProbabilisticMediatedSchema::CoMediationProbability(
    const std::string& canonical_a, const std::string& canonical_b) const {
  double total = 0.0;
  for (const MediatedSchemaAlternative& alt : alternatives) {
    for (const MediatedAttribute& ma : alt.schema.attributes) {
      const bool has_a = std::binary_search(ma.members.begin(),
                                            ma.members.end(), canonical_a);
      if (!has_a) continue;
      if (std::binary_search(ma.members.begin(), ma.members.end(),
                             canonical_b)) {
        total += alt.probability;
      }
      break;
    }
  }
  return total;
}

Result<ProbabilisticMediatedSchema> BuildProbabilisticMediatedSchema(
    const SchemaCorpus& corpus, const Tokenizer& tokenizer,
    const std::vector<std::pair<std::uint32_t, double>>& members,
    const PMedSchemaOptions& options) {
  if (options.uncertainty_band < 0.0 || options.uncertainty_band >= 0.5) {
    return Status::InvalidArgument("uncertainty_band must be in [0, 0.5)");
  }
  if (options.max_alternatives == 0 ||
      options.max_borderline_pairs > 20) {
    return Status::InvalidArgument(
        "max_alternatives must be positive and max_borderline_pairs <= 20");
  }
  PAYGO_ASSIGN_OR_RETURN(
      const std::vector<DomainAttribute> attrs,
      CollectFrequentAttributes(corpus, tokenizer, members,
                                options.base.attr_freq_threshold));
  const TermSimilarity sim(options.base.similarity_kind);
  const double thr = options.base.attr_sim_threshold;
  const double band = options.uncertainty_band;

  // Classify attribute pairs: certain merges, and borderline pairs with a
  // merge probability linear across the uncertainty band (0.5 exactly at
  // the threshold).
  struct Borderline {
    std::uint32_t i, j;
    double merge_prob;
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> certain_edges;
  std::vector<Borderline> borderline;
  // The mediator's kernel: names over term ids, t_sim once per term pair.
  TermTable terms(sim);
  std::vector<TermTable::Name> names;
  names.reserve(attrs.size());
  for (const DomainAttribute& a : attrs) names.push_back(terms.Intern(a.terms));
  for (std::uint32_t i = 0; i < attrs.size(); ++i) {
    for (std::uint32_t j = i + 1; j < attrs.size(); ++j) {
      const double s =
          terms.NameSimilarity(names[i], names[j], options.base.tau_t_sim);
      if (s >= thr + band) {
        certain_edges.emplace_back(i, j);
      } else if (s > thr - band) {
        const double p =
            std::min(0.95, std::max(0.05, (s - (thr - band)) / (2.0 * band)));
        borderline.push_back({i, j, p});
      }
    }
  }

  // Keep the most ambiguous pairs; resolve the overflow deterministically.
  std::sort(borderline.begin(), borderline.end(),
            [](const Borderline& a, const Borderline& b) {
              const double da = std::abs(a.merge_prob - 0.5);
              const double db = std::abs(b.merge_prob - 0.5);
              if (da != db) return da < db;
              if (a.i != b.i) return a.i < b.i;
              return a.j < b.j;
            });
  while (borderline.size() > options.max_borderline_pairs) {
    const Borderline& overflow = borderline.back();
    if (overflow.merge_prob >= 0.5) {
      certain_edges.emplace_back(overflow.i, overflow.j);
    }
    borderline.pop_back();
  }

  ProbabilisticMediatedSchema out;
  for (const Borderline& b : borderline) {
    out.borderline_pairs.emplace_back(attrs[b.i].canonical,
                                      attrs[b.j].canonical);
  }

  // Enumerate resolutions; deduplicate clusterings that coincide after the
  // single-link closure.
  const std::size_t num_b = borderline.size();
  std::map<std::vector<std::vector<std::string>>,
           std::pair<double, MediatedSchema>>
      dedup;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << num_b); ++mask) {
    double prob = 1.0;
    UnionFind uf(attrs.size());
    for (const auto& [i, j] : certain_edges) uf.Union(i, j);
    for (std::size_t k = 0; k < num_b; ++k) {
      if ((mask >> k) & 1) {
        uf.Union(borderline[k].i, borderline[k].j);
        prob *= borderline[k].merge_prob;
      } else {
        prob *= 1.0 - borderline[k].merge_prob;
      }
    }
    MediatedSchema schema = CloseToSchema(attrs, uf);
    auto key = SchemaKey(schema);
    auto it = dedup.find(key);
    if (it == dedup.end()) {
      dedup.emplace(std::move(key), std::make_pair(prob, std::move(schema)));
    } else {
      it->second.first += prob;
    }
  }

  for (auto& [key, entry] : dedup) {
    out.alternatives.push_back({std::move(entry.second), entry.first});
  }
  std::sort(out.alternatives.begin(), out.alternatives.end(),
            [](const MediatedSchemaAlternative& a,
               const MediatedSchemaAlternative& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.schema.size() < b.schema.size();
            });
  if (out.alternatives.size() > options.max_alternatives) {
    out.alternatives.resize(options.max_alternatives);
  }
  double norm = 0.0;
  for (const auto& alt : out.alternatives) norm += alt.probability;
  if (norm > 0.0) {
    for (auto& alt : out.alternatives) alt.probability /= norm;
  }
  return out;
}

}  // namespace paygo
