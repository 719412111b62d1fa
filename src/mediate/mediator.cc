#include "mediate/mediator.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "obs/trace.h"
#include "util/union_find.h"

namespace paygo {

double AttributeNameSimilarity(const std::vector<std::string>& terms_a,
                               const std::vector<std::string>& terms_b,
                               const TermSimilarity& sim, double tau_t_sim) {
  if (terms_a.empty() || terms_b.empty()) return 0.0;
  // Soft Dice: each term contributes its best-partner t_sim, but only when
  // that similarity clears tau_t_sim — sub-threshold matches count zero so
  // a single shared sub-word cannot chain unrelated attribute names (e.g.
  // "year of publish" vs "publisher" share only publish~publisher).
  auto matched_weight = [&](const std::vector<std::string>& from,
                            const std::vector<std::string>& to) {
    double total = 0.0;
    for (const std::string& t : from) {
      double best = 0.0;
      for (const std::string& u : to) {
        best = std::max(best, sim.Compute(t, u));
      }
      if (best >= tau_t_sim) total += best;
    }
    return total;
  };
  return (matched_weight(terms_a, terms_b) + matched_weight(terms_b, terms_a)) /
         static_cast<double>(terms_a.size() + terms_b.size());
}

Result<std::vector<DomainAttribute>> CollectFrequentAttributes(
    const SchemaCorpus& corpus, const Tokenizer& tokenizer,
    const std::vector<std::pair<std::uint32_t, double>>& members,
    double attr_freq_threshold) {
  PAYGO_TRACE_SPAN("mediate.collect_attributes");
  if (attr_freq_threshold < 0.0 || attr_freq_threshold > 1.0) {
    return Status::InvalidArgument("attr_freq_threshold must be in [0, 1]");
  }
  if (members.empty()) {
    return Status::InvalidArgument("domain has no member schemas");
  }
  for (const auto& [schema_id, prob] : members) {
    if (schema_id >= corpus.size()) {
      return Status::OutOfRange("member schema id out of range");
    }
    if (prob <= 0.0 || prob > 1.0) {
      return Status::InvalidArgument(
          "membership probability must be in (0, 1]");
    }
  }

  // Collect canonical attribute names with their weighted schema
  // frequencies; a name counts once per schema containing it. std::map
  // keeps the output sorted by canonical name (determinism).
  std::map<std::string, DomainAttribute> attrs;
  double total_weight = 0.0;
  for (const auto& [schema_id, prob] : members) {
    total_weight += prob;
    std::vector<std::string> seen;
    for (const std::string& raw : corpus.schema(schema_id).attributes) {
      const std::string canon = CanonicalAttributeName(raw);
      if (canon.empty()) continue;
      if (std::find(seen.begin(), seen.end(), canon) != seen.end()) continue;
      seen.push_back(canon);
      DomainAttribute& info = attrs[canon];
      info.weight += prob;
      if (info.display.empty()) {
        info.canonical = canon;
        info.display = raw;
        info.terms = tokenizer.Tokenize(raw);
      }
    }
  }

  std::vector<DomainAttribute> kept;
  for (auto& [canon, info] : attrs) {
    if (total_weight <= 0.0) continue;
    if (info.weight / total_weight >= attr_freq_threshold) {
      kept.push_back(std::move(info));
    }
  }
  return kept;
}

Result<DomainMediation> Mediator::BuildForDomain(
    const SchemaCorpus& corpus, const Tokenizer& tokenizer,
    std::vector<std::pair<std::uint32_t, double>> members,
    const MediatorOptions& options) {
  PAYGO_TRACE_SPAN("mediate.build_domain");
  PAYGO_ASSIGN_OR_RETURN(
      const std::vector<DomainAttribute> kept,
      CollectFrequentAttributes(corpus, tokenizer, members,
                                options.attr_freq_threshold));
  DomainMediation out;
  out.members = members;
  const TermSimilarity sim(options.similarity_kind);

  // Single-link clustering of the kept attribute names.
  UnionFind uf(kept.size());
  {
    PAYGO_TRACE_SPAN("mediate.cluster_attributes");
    for (std::uint32_t i = 0; i < kept.size(); ++i) {
      for (std::uint32_t j = i + 1; j < kept.size(); ++j) {
        const double s = AttributeNameSimilarity(kept[i].terms, kept[j].terms,
                                                 sim, options.tau_t_sim);
        if (s >= options.attr_sim_threshold) uf.Union(i, j);
      }
    }
  }
  std::vector<std::vector<std::string>> mediated_terms;
  {
    PAYGO_TRACE_SPAN("mediate.mediated_attributes");
    std::map<std::uint32_t, std::vector<std::uint32_t>> groups;
    for (std::uint32_t i = 0; i < kept.size(); ++i) {
      groups[uf.Find(i)].push_back(i);
    }
    for (const auto& [root, group] : groups) {
      MediatedAttribute ma;
      double best_weight = -1.0;
      for (std::uint32_t i : group) {
        const DomainAttribute& info = kept[i];
        ma.members.push_back(info.canonical);
        ma.weight += info.weight;
        if (info.weight > best_weight) {
          best_weight = info.weight;
          ma.name = info.display;
        }
      }
      std::sort(ma.members.begin(), ma.members.end());
      out.mediated.attributes.push_back(std::move(ma));
    }
    // Deterministic order: heaviest mediated attribute first.
    std::sort(out.mediated.attributes.begin(), out.mediated.attributes.end(),
              [](const MediatedAttribute& a, const MediatedAttribute& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                return a.name < b.name;
              });

    // Precompute mediated-attribute term sets for candidate matching.
    mediated_terms.reserve(out.mediated.size());
    for (const MediatedAttribute& ma : out.mediated.attributes) {
      mediated_terms.push_back(tokenizer.Tokenize(ma.name));
    }
  }

  // 4. Probabilistic mappings per member schema.
  PAYGO_TRACE_SPAN("mediate.mappings");
  for (const auto& [schema_id, prob] : members) {
    (void)prob;
    const Schema& schema = corpus.schema(schema_id);
    ProbabilisticMapping pm;
    pm.schema_id = schema_id;

    // Candidate mediated attributes per source attribute, with weights.
    struct Candidate {
      int mediated;
      double weight;
    };
    std::vector<std::vector<Candidate>> candidates(schema.attributes.size());
    for (std::size_t a = 0; a < schema.attributes.size(); ++a) {
      const std::string canon = CanonicalAttributeName(schema.attributes[a]);
      const int direct = out.mediated.FindByMember(canon);
      if (direct >= 0) {
        // Exact member: the correspondence is certain.
        candidates[a].push_back({direct, 1.0});
        continue;
      }
      const std::vector<std::string> terms =
          tokenizer.Tokenize(schema.attributes[a]);
      double best = 0.0;
      std::vector<Candidate> cands;
      for (std::size_t m = 0; m < out.mediated.size(); ++m) {
        const double s = AttributeNameSimilarity(terms, mediated_terms[m], sim,
                                                 options.tau_t_sim);
        if (s >= options.attr_sim_threshold) {
          cands.push_back({static_cast<int>(m), s});
          best = std::max(best, s);
        }
      }
      for (const Candidate& c : cands) {
        if (c.weight >= best * options.ambiguity_ratio) {
          candidates[a].push_back(c);
        }
      }
      // No candidate -> the attribute stays unmapped in every alternative.
    }

    // Trim candidate lists (best-first) until the mapping count fits.
    for (auto& cl : candidates) {
      std::sort(cl.begin(), cl.end(), [](const Candidate& x, const Candidate& y) {
        if (x.weight != y.weight) return x.weight > y.weight;
        return x.mediated < y.mediated;
      });
    }
    for (;;) {
      std::size_t product = 1;
      std::size_t widest = 0;
      std::size_t widest_size = 1;
      for (std::size_t a = 0; a < candidates.size(); ++a) {
        const std::size_t k = std::max<std::size_t>(candidates[a].size(), 1);
        product *= k;
        if (k > widest_size) {
          widest_size = k;
          widest = a;
        }
        if (product > options.max_mappings_per_schema) break;
      }
      if (product <= options.max_mappings_per_schema) break;
      candidates[widest].pop_back();
    }

    // Enumerate the cartesian product of candidate choices.
    std::vector<AttributeMapping> alts;
    alts.push_back({std::vector<int>(schema.attributes.size(), -1), 1.0});
    for (std::size_t a = 0; a < candidates.size(); ++a) {
      if (candidates[a].empty()) continue;
      double norm = 0.0;
      for (const Candidate& c : candidates[a]) norm += c.weight;
      std::vector<AttributeMapping> next;
      next.reserve(alts.size() * candidates[a].size());
      for (const AttributeMapping& base : alts) {
        for (const Candidate& c : candidates[a]) {
          AttributeMapping ext = base;
          ext.target[a] = c.mediated;
          ext.probability *= c.weight / norm;
          next.push_back(std::move(ext));
        }
      }
      alts = std::move(next);
    }
    std::sort(alts.begin(), alts.end(),
              [](const AttributeMapping& x, const AttributeMapping& y) {
                if (x.probability != y.probability) {
                  return x.probability > y.probability;
                }
                return x.target < y.target;
              });
    pm.alternatives = std::move(alts);
    out.mappings.push_back(std::move(pm));
  }
  return out;
}

}  // namespace paygo
