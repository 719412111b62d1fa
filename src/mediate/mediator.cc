#include "mediate/mediator.h"

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <string_view>
#include <unordered_map>

#include "mediate/term_table.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "util/union_find.h"

namespace paygo {

namespace {

using Members = std::vector<std::pair<std::uint32_t, double>>;

/// Heap bytes a string of this content needs: its characters and the
/// terminator, or 0 when they fit the inline buffer. Sizes, not
/// capacities, throughout: equal content weighs the same however it grew.
std::size_t StringHeapBytes(const std::string& s) {
  constexpr std::size_t kInlineChars = std::string().capacity();
  return s.size() > kInlineChars ? s.size() + 1 : 0;
}

std::size_t StringsHeapBytes(const std::vector<std::string>& strings) {
  std::size_t bytes = strings.size() * sizeof(std::string);
  for (const std::string& s : strings) bytes += StringHeapBytes(s);
  return bytes;
}

/// Equal schema id and bitwise-equal probability.
bool SameMember(const std::pair<std::uint32_t, double>& a,
                const std::pair<std::uint32_t, double>& b) {
  return a.first == b.first && std::bit_cast<std::uint64_t>(a.second) ==
                                   std::bit_cast<std::uint64_t>(b.second);
}

/// Checks the threshold, that \p members is not empty and members[first..]
/// against \p corpus (the members before \p first were checked when the
/// base was built).
Status ValidateMembers(const SchemaCorpus& corpus, const Members& members,
                       std::size_t first, double attr_freq_threshold) {
  if (attr_freq_threshold < 0.0 || attr_freq_threshold > 1.0) {
    return Status::InvalidArgument("attr_freq_threshold must be in [0, 1]");
  }
  if (members.empty()) {
    return Status::InvalidArgument("domain has no member schemas");
  }
  for (std::size_t i = first; i < members.size(); ++i) {
    const auto& [schema_id, prob] = members[i];
    if (schema_id >= corpus.size()) {
      return Status::OutOfRange("member schema id out of range");
    }
    if (prob <= 0.0 || prob > 1.0) {
      return Status::InvalidArgument(
          "membership probability must be in (0, 1]");
    }
  }
  return Status::OK();
}

/// A tally extended by members[first..], with how its names relate to the
/// base tally's.
struct Folded {
  AttributeTally tally;
  /// Per name of `tally`: whether the base tally kept it.
  std::vector<char> was_kept;
  /// Per name of the base tally: its index in `tally`.
  std::vector<std::uint32_t> remap;
};

/// Steps 1 and 2: adds members[first..] to a copy of \p from (an empty
/// tally when null). A name counts once per schema containing it; each
/// name's weight and the total weight get the appended probabilities in
/// member order, after the base's sums, so they equal a tally of every
/// member from scratch bitwise. Kept names get their terms, dropped names
/// lose them.
Result<Folded> FoldAttributes(const AttributeTally* from, std::size_t first,
                              const SchemaCorpus& corpus,
                              const Tokenizer& tokenizer,
                              const Members& members,
                              const MediatorOptions& options) {
  PAYGO_TRACE_SPAN("mediate.collect_attributes");
  PAYGO_RETURN_NOT_OK(ValidateMembers(corpus, members, first,
                                      options.attr_freq_threshold));
  Folded out;
  AttributeTally& tally = out.tally;
  tally.options = options;
  std::vector<DomainAttribute> names;
  if (from != nullptr) {
    tally.total_weight = from->total_weight;
    names = from->names;
  }
  // Names the base has not seen; std::map keeps them sorted by canonical
  // name for the merge below.
  std::map<std::string, DomainAttribute> fresh;
  std::vector<std::string> seen;
  for (std::size_t m = first; m < members.size(); ++m) {
    const auto& [schema_id, prob] = members[m];
    tally.total_weight += prob;
    seen.clear();
    for (const std::string& raw : corpus.schema(schema_id).attributes) {
      std::string canon = CanonicalAttributeName(raw);
      if (canon.empty()) continue;
      if (std::find(seen.begin(), seen.end(), canon) != seen.end()) continue;
      const auto it = std::lower_bound(
          names.begin(), names.end(), canon,
          [](const DomainAttribute& a, const std::string& c) {
            return a.canonical < c;
          });
      if (it != names.end() && it->canonical == canon) {
        it->weight += prob;
      } else {
        DomainAttribute& info = fresh[canon];
        info.weight += prob;
        if (info.display.empty()) {
          info.canonical = canon;
          info.display = raw;
        }
      }
      seen.push_back(std::move(canon));
    }
  }

  // Merge the base's names with the fresh ones, both sorted.
  out.remap.resize(names.size());
  tally.names.reserve(names.size() + fresh.size());
  out.was_kept.reserve(names.size() + fresh.size());
  auto next = fresh.begin();
  for (std::size_t i = 0; i <= names.size(); ++i) {
    while (next != fresh.end() &&
           (i == names.size() || next->first < names[i].canonical)) {
      tally.names.push_back(std::move(next->second));
      out.was_kept.push_back(0);
      ++next;
    }
    if (i == names.size()) break;
    out.remap[i] = static_cast<std::uint32_t>(tally.names.size());
    out.was_kept.push_back(from->Kept(i) ? 1 : 0);
    tally.names.push_back(std::move(names[i]));
  }
  for (std::size_t i = 0; i < tally.names.size(); ++i) {
    DomainAttribute& info = tally.names[i];
    if (!tally.Kept(i)) {
      std::vector<std::string>().swap(info.terms);
    } else if (!out.was_kept[i]) {
      info.terms = tokenizer.Tokenize(info.display);
    }
  }
  return out;
}

/// Step 3's edges: the base's edges between names it kept that are still
/// kept, plus every pair with a newly kept name scored afresh. Same edge
/// set, hence the same single-link partition, as scoring every pair. The
/// kept names are interned into \p terms on the first pair scored.
void ClusterNames(const AttributeTally* from, Folded& folded,
                  TermTable& terms, std::uint64_t* name_sims) {
  PAYGO_TRACE_SPAN("mediate.cluster_attributes");
  AttributeTally& tally = folded.tally;
  if (from != nullptr) {
    // remap is increasing, so the reused edges stay sorted.
    for (const auto& [a, b] : from->edges) {
      const std::uint32_t i = folded.remap[a];
      const std::uint32_t j = folded.remap[b];
      if (tally.Kept(i) && tally.Kept(j)) tally.edges.emplace_back(i, j);
    }
  }
  std::vector<std::uint32_t> kept;
  for (std::uint32_t i = 0; i < tally.names.size(); ++i) {
    if (tally.Kept(i)) kept.push_back(i);
  }
  const std::size_t reused = tally.edges.size();
  std::vector<TermTable::Name> names;  // per kept name, once interned
  for (std::size_t x = 0; x < kept.size(); ++x) {
    for (std::size_t y = x + 1; y < kept.size(); ++y) {
      const std::uint32_t i = kept[x];
      const std::uint32_t j = kept[y];
      if (folded.was_kept[i] && folded.was_kept[j]) continue;
      if (names.empty()) {
        for (std::uint32_t k : kept) {
          names.push_back(terms.Intern(tally.names[k].terms));
        }
      }
      ++*name_sims;
      const double s = terms.NameSimilarity(names[x], names[y],
                                            tally.options.tau_t_sim);
      if (s >= tally.options.attr_sim_threshold) tally.edges.emplace_back(i, j);
    }
  }
  if (tally.edges.size() > reused) {
    std::sort(tally.edges.begin(), tally.edges.end());
  }
}

/// One mediated attribute while the mediated schema is assembled.
struct Group {
  MediatedAttribute attribute;
  std::vector<std::uint32_t> names;  ///< Indices into the tally, ascending.
  std::uint32_t display = 0;         ///< The name whose display it takes.
};

/// A candidate mediated attribute of a source attribute.
struct Candidate {
  int mediated;
  double weight;
};

/// Each distinct raw attribute name's candidate list, best-first, computed
/// once per build: it depends only on the raw string and the mediated
/// schema. Names are scored over \p terms; the mediated display names are
/// interned on the first raw name scored.
class CandidateMemo {
 public:
  CandidateMemo(const AttributeTally& tally,
                const std::vector<int>& mediated_of,
                const std::vector<const std::vector<std::string>*>& terms,
                const Tokenizer& tokenizer, TermTable& table)
      : tally_(tally),
        mediated_of_(mediated_of),
        terms_(terms),
        tokenizer_(tokenizer),
        table_(table) {}

  /// \p raw must outlive the memo (it is keyed by a view of it).
  const std::vector<Candidate>& For(const std::string& raw) {
    auto [it, inserted] = memo_.try_emplace(raw);
    if (inserted) it->second = Compute(raw);
    return it->second;
  }

  std::uint64_t name_sims() const { return name_sims_; }

 private:
  std::vector<Candidate> Compute(const std::string& raw) {
    const MediatorOptions& options = tally_.options;
    const std::string canon = CanonicalAttributeName(raw);
    const auto it = std::lower_bound(
        tally_.names.begin(), tally_.names.end(), canon,
        [](const DomainAttribute& a, const std::string& c) {
          return a.canonical < c;
        });
    if (it != tally_.names.end() && it->canonical == canon) {
      const int direct = mediated_of_[it - tally_.names.begin()];
      // Exact member: the correspondence is certain.
      if (direct >= 0) return {{direct, 1.0}};
    }
    if (mediated_names_.size() < terms_.size()) {
      for (const std::vector<std::string>* t : terms_) {
        mediated_names_.push_back(table_.Intern(*t));
      }
    }
    const TermTable::Name name = table_.Intern(tokenizer_.Tokenize(raw));
    double best = 0.0;
    std::vector<Candidate> cands;
    for (std::size_t m = 0; m < terms_.size(); ++m) {
      ++name_sims_;
      const double s = table_.NameSimilarity(name, mediated_names_[m],
                                             options.tau_t_sim);
      if (s >= options.attr_sim_threshold) {
        cands.push_back({static_cast<int>(m), s});
        best = std::max(best, s);
      }
    }
    std::vector<Candidate> out;
    for (const Candidate& c : cands) {
      if (c.weight >= best * options.ambiguity_ratio) out.push_back(c);
    }
    // No candidate -> the attribute stays unmapped in every alternative.
    std::sort(out.begin(), out.end(),
              [](const Candidate& x, const Candidate& y) {
                if (x.weight != y.weight) return x.weight > y.weight;
                return x.mediated < y.mediated;
              });
    return out;
  }

  const AttributeTally& tally_;
  const std::vector<int>& mediated_of_;
  const std::vector<const std::vector<std::string>*>& terms_;
  const Tokenizer& tokenizer_;
  TermTable& table_;
  /// Per mediated attribute: its display name in table_, once interned.
  std::vector<TermTable::Name> mediated_names_;
  std::unordered_map<std::string_view, std::vector<Candidate>> memo_;
  std::uint64_t name_sims_ = 0;
};

/// Step 4 for one schema: trim its attributes' candidate lists until the
/// mapping count fits, then enumerate their cartesian product.
ProbabilisticMapping MapSchema(std::uint32_t schema_id, const Schema& schema,
                               CandidateMemo& memo,
                               std::size_t max_mappings_per_schema) {
  ProbabilisticMapping pm;
  pm.schema_id = schema_id;
  std::vector<std::span<const Candidate>> candidates;
  candidates.reserve(schema.attributes.size());
  for (const std::string& raw : schema.attributes) {
    candidates.emplace_back(memo.For(raw));
  }

  // Trim candidate lists (best-first) until the mapping count fits.
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
      if (product > max_mappings_per_schema) break;
    }
    if (product <= max_mappings_per_schema) break;
    candidates[widest] = candidates[widest].first(candidates[widest].size() - 1);
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
  return pm;
}

bool SameMediatedSchema(const MediatedSchema& a, const MediatedSchema& b) {
  return std::equal(a.attributes.begin(), a.attributes.end(),
                    b.attributes.begin(), b.attributes.end(),
                    [](const MediatedAttribute& x, const MediatedAttribute& y) {
                      return x.name == y.name && x.members == y.members;
                    });
}

}  // namespace

double AttributeNameSimilarity(const std::vector<std::string>& terms_a,
                               const std::vector<std::string>& terms_b,
                               const TermSimilarity& sim, double tau_t_sim) {
  return SoftDice(std::span<const std::string>(terms_a),
                  std::span<const std::string>(terms_b), tau_t_sim,
                  [&sim](const std::string& t, const std::string& u) {
                    return sim.Compute(t, u);
                  });
}

std::size_t AttributeTally::HeapBytes() const {
  std::size_t bytes = names.size() * sizeof(DomainAttribute) +
                      edges.size() * sizeof(edges[0]);
  for (const DomainAttribute& a : names) {
    bytes += StringHeapBytes(a.canonical) + StringHeapBytes(a.display) +
             StringsHeapBytes(a.terms);
  }
  return bytes;
}

std::size_t DomainMediation::MemoryBytes() const {
  std::size_t bytes =
      sizeof(DomainMediation) +
      mediated.attributes.size() * sizeof(MediatedAttribute) +
      mappings.size() * sizeof(ProbabilisticMapping) +
      members.size() * sizeof(members[0]);
  for (const MediatedAttribute& a : mediated.attributes) {
    bytes += StringHeapBytes(a.name) + StringsHeapBytes(a.members);
  }
  for (const ProbabilisticMapping& pm : mappings) {
    bytes += pm.alternatives.size() * sizeof(AttributeMapping);
    for (const AttributeMapping& alt : pm.alternatives) {
      bytes += alt.target.size() * sizeof(int);
    }
  }
  if (tally != nullptr) bytes += sizeof(AttributeTally) + tally->HeapBytes();
  return bytes;
}

Result<std::vector<DomainAttribute>> CollectFrequentAttributes(
    const SchemaCorpus& corpus, const Tokenizer& tokenizer,
    const std::vector<std::pair<std::uint32_t, double>>& members,
    double attr_freq_threshold) {
  MediatorOptions options;
  options.attr_freq_threshold = attr_freq_threshold;
  PAYGO_ASSIGN_OR_RETURN(Folded folded,
                         FoldAttributes(nullptr, 0, corpus, tokenizer,
                                        members, options));
  std::vector<DomainAttribute> kept;
  for (std::size_t i = 0; i < folded.tally.names.size(); ++i) {
    if (folded.tally.Kept(i)) kept.push_back(std::move(folded.tally.names[i]));
  }
  return kept;
}

Result<DomainMediation> Mediator::BuildForDomain(
    const SchemaCorpus& corpus, const Tokenizer& tokenizer,
    std::vector<std::pair<std::uint32_t, double>> members,
    const MediatorOptions& options) {
  return Extend(DomainMediation{}, corpus, tokenizer, std::move(members),
                options);
}

Result<DomainMediation> Mediator::Extend(
    const DomainMediation& base, const SchemaCorpus& corpus,
    const Tokenizer& tokenizer,
    std::vector<std::pair<std::uint32_t, double>> members,
    const MediatorOptions& options) {
  PAYGO_TRACE_SPAN("mediate.build_domain");
  static Counter* const extended =
      StatsRegistry::Global().GetCounter("paygo.mediate.domains_extended");
  static Counter* const rebuilt =
      StatsRegistry::Global().GetCounter("paygo.mediate.domains_rebuilt");
  static Counter* const mappings_reused =
      StatsRegistry::Global().GetCounter("paygo.mediate.mappings_reused");
  static Counter* const mappings_computed =
      StatsRegistry::Global().GetCounter("paygo.mediate.mappings_computed");
  static Counter* const name_sims =
      StatsRegistry::Global().GetCounter("paygo.mediate.name_sims");
  static Counter* const term_sims =
      StatsRegistry::Global().GetCounter("paygo.mediate.term_sims");

  // The extension applies when base's members are a bitwise prefix of
  // members and the options are equal; otherwise fold from empty.
  const bool extends =
      base.tally != nullptr && base.tally->options == options &&
      base.members.size() <= members.size() &&
      std::equal(base.members.begin(), base.members.end(), members.begin(),
                 SameMember);
  const AttributeTally* from = extends ? base.tally.get() : nullptr;
  const std::size_t first = extends ? base.members.size() : 0;

  PAYGO_ASSIGN_OR_RETURN(
      Folded folded,
      FoldAttributes(from, first, corpus, tokenizer, members, options));
  if (options.max_mappings_per_schema == 0) {
    return Status::InvalidArgument("max_mappings_per_schema must be positive");
  }
  if (!base.members.empty()) (extends ? extended : rebuilt)->Increment();
  const TermSimilarity sim(options.similarity_kind);
  TermTable terms(sim);
  std::uint64_t sims = 0;
  ClusterNames(from, folded, terms, &sims);
  const AttributeTally& tally = folded.tally;

  DomainMediation out;
  out.members = std::move(members);
  // Per tally name: the mediated attribute it belongs to, or -1.
  std::vector<int> mediated_of(tally.names.size(), -1);
  // Per mediated attribute: the terms of its display name.
  std::vector<const std::vector<std::string>*> mediated_terms;
  {
    PAYGO_TRACE_SPAN("mediate.mediated_attributes");
    UnionFind uf(tally.names.size());
    for (const auto& [i, j] : tally.edges) uf.Union(i, j);
    std::map<std::uint32_t, Group> groups;
    for (std::uint32_t i = 0; i < tally.names.size(); ++i) {
      if (tally.Kept(i)) groups[uf.Find(i)].names.push_back(i);
    }
    std::vector<Group> sorted;
    sorted.reserve(groups.size());
    for (auto& [root, group] : groups) {
      MediatedAttribute& ma = group.attribute;
      double best_weight = -1.0;
      // Ascending index is ascending canonical name: members come sorted.
      for (std::uint32_t i : group.names) {
        const DomainAttribute& info = tally.names[i];
        ma.members.push_back(info.canonical);
        ma.weight += info.weight;
        if (info.weight > best_weight) {
          best_weight = info.weight;
          group.display = i;
        }
      }
      ma.name = tally.names[group.display].display;
      sorted.push_back(std::move(group));
    }
    // Deterministic order: heaviest mediated attribute first. Display
    // names are distinct, so the order is total.
    std::sort(sorted.begin(), sorted.end(), [](const Group& a, const Group& b) {
      if (a.attribute.weight != b.attribute.weight) {
        return a.attribute.weight > b.attribute.weight;
      }
      return a.attribute.name < b.attribute.name;
    });
    out.mediated.attributes.reserve(sorted.size());
    mediated_terms.reserve(sorted.size());
    for (Group& group : sorted) {
      for (std::uint32_t i : group.names) {
        mediated_of[i] = static_cast<int>(out.mediated.attributes.size());
      }
      mediated_terms.push_back(&tally.names[group.display].terms);
      out.mediated.attributes.push_back(std::move(group.attribute));
    }
  }

  // 4. Probabilistic mappings per member schema. A mapping depends only on
  // its schema and the mediated schema's (name, members) sequence, so
  // when that sequence is unchanged the base's mappings stand.
  {
    PAYGO_TRACE_SPAN("mediate.mappings");
    std::size_t first_mapped = 0;
    out.mappings.reserve(out.members.size());
    if (extends && SameMediatedSchema(base.mediated, out.mediated)) {
      out.mappings = base.mappings;  // keeps the reserved room
      first_mapped = first;
    }
    CandidateMemo memo(tally, mediated_of, mediated_terms, tokenizer, terms);
    for (std::size_t m = first_mapped; m < out.members.size(); ++m) {
      const std::uint32_t schema_id = out.members[m].first;
      out.mappings.push_back(MapSchema(schema_id, corpus.schema(schema_id),
                                       memo, options.max_mappings_per_schema));
    }
    sims += memo.name_sims();
    mappings_reused->Add(first_mapped);
    mappings_computed->Add(out.members.size() - first_mapped);
  }
  name_sims->Add(sims);
  term_sims->Add(terms.kernel_calls());
  out.tally = std::make_shared<const AttributeTally>(std::move(folded.tally));
  return out;
}

}  // namespace paygo
