/// \file mediation_kernel_test.cc
/// \brief Guards on the mediator's name-similarity kernel.
///
/// Mediation scores attribute names by soft-Dice similarity over t_sim.
/// These tests pin its output so that any change to how the kernel is
/// evaluated (term ids, memoized t_sim) keeps every mediation bitwise:
///
///  - the mediated attributes equal a test-side oracle: a union-find over
///    CollectFrequentAttributes, joined by the public string
///    AttributeNameSimilarity over every kept pair;
///  - a fingerprint of every mediation (names, members, weight bits,
///    mapping targets and probability bits, tally edges, MemoryBytes)
///    equals a recorded constant, for every TermSimilarityKind, on a DDH
///    and a many-domain corpus, after a build and after 20 arrivals;
///  - paygo.mediate.name_sims equals its recorded value on a fixed domain,
///    and paygo.mediate.term_sims (t_sim kernel calls) is at most the
///    square of the distinct terms the call holds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mediate/mediator.h"
#include "obs/stats.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "util/union_find.h"

namespace paygo {
namespace {

using Members = std::vector<std::pair<std::uint32_t, double>>;

constexpr TermSimilarityKind kKinds[] = {
    TermSimilarityKind::kLcs, TermSimilarityKind::kStem,
    TermSimilarityKind::kExact, TermSimilarityKind::kLevenshtein,
    TermSimilarityKind::kJaroWinkler};

std::uint64_t CounterValue(const char* name) {
  return StatsRegistry::Global().GetCounter(name)->value();
}

/// A membership probability in (0, 1] that is not a short binary
/// fraction, so the weight sums round and their order matters.
double Prob(std::uint32_t id) {
  if (id % 3 != 0) return 1.0;
  return 0.3 + 0.69 * static_cast<double>((id * 2654435761u) % 997) / 997.0;
}

/// FNV-1a over the bytes fed to it.
class Fingerprint {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Mediation(const DomainMediation& m) {
    U64(m.mediated.size());
    for (const MediatedAttribute& a : m.mediated.attributes) {
      Str(a.name);
      U64(a.members.size());
      for (const std::string& c : a.members) Str(c);
      Double(a.weight);
    }
    U64(m.mappings.size());
    for (const ProbabilisticMapping& pm : m.mappings) {
      U64(pm.schema_id);
      U64(pm.alternatives.size());
      for (const AttributeMapping& alt : pm.alternatives) {
        U64(alt.target.size());
        for (int t : alt.target) U64(static_cast<std::uint64_t>(t));
        Double(alt.probability);
      }
    }
    U64(m.tally->edges.size());
    for (const auto& [i, j] : m.tally->edges) U64(std::uint64_t{i} << 32 | j);
    U64(m.MemoryBytes());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// A corpus split into per-label domains: seed members, then 20 arrivals
/// spread over the corpus (every (n/20)-th schema), each appended to its
/// label's domain.
struct Workload {
  SchemaCorpus corpus;
  std::map<std::string, Members> seeds;
  std::vector<std::uint32_t> arrivals;
};

Workload Split(SchemaCorpus corpus) {
  Workload w{std::move(corpus), {}, {}};
  const std::size_t step = w.corpus.size() / 20;
  for (std::uint32_t i = 0; i < w.corpus.size(); ++i) {
    if (i % step == step - 1 && w.arrivals.size() < 20) {
      w.arrivals.push_back(i);
    } else {
      w.seeds[w.corpus.labels(i)[0]].emplace_back(i, Prob(i));
    }
  }
  return w;
}

Workload SmallDdh() {
  return Split(MakeDdhCorpus({.num_schemas = 300, .seed = 909}));
}

Workload SmallManyDomain() {
  return Split(MakeManyDomainCorpus({.num_domains = 40, .seed = 909}));
}

/// Fingerprints of every domain's mediation after the build and after the
/// arrivals, each domain in label order.
std::pair<std::uint64_t, std::uint64_t> Fingerprints(
    const Workload& w, const MediatorOptions& options) {
  const Tokenizer tok;
  std::map<std::string, Members> members = w.seeds;
  std::map<std::string, DomainMediation> current;
  Fingerprint built;
  for (const auto& [label, m] : members) {
    auto med = Mediator::BuildForDomain(w.corpus, tok, m, options);
    EXPECT_TRUE(med.ok()) << med.status();
    if (!med.ok()) return {0, 0};
    built.Str(label);
    built.Mediation(*med);
    current[label] = std::move(*med);
  }
  for (std::uint32_t id : w.arrivals) {
    const std::string& label = w.corpus.labels(id)[0];
    members[label].emplace_back(id, Prob(id));
    auto med =
        Mediator::Extend(current[label], w.corpus, tok, members[label], options);
    EXPECT_TRUE(med.ok()) << med.status();
    if (!med.ok()) return {0, 0};
    current[label] = std::move(*med);
  }
  Fingerprint extended;
  for (const auto& [label, med] : current) {
    extended.Str(label);
    extended.Mediation(med);
  }
  return {built.value(), extended.value()};
}

const char* KindName(TermSimilarityKind kind) {
  switch (kind) {
    case TermSimilarityKind::kLcs: return "lcs";
    case TermSimilarityKind::kStem: return "stem";
    case TermSimilarityKind::kExact: return "exact";
    case TermSimilarityKind::kLevenshtein: return "levenshtein";
    case TermSimilarityKind::kJaroWinkler: return "jaro_winkler";
  }
  return "?";
}

/// The oracle's mediated attributes: member sets of a union-find over the
/// frequent attributes, joined where the string similarity reaches the
/// threshold. Sorted, for comparison as sets.
std::set<std::vector<std::string>> OracleGroups(
    const SchemaCorpus& corpus, const Tokenizer& tok, const Members& members,
    const MediatorOptions& options) {
  auto attrs = CollectFrequentAttributes(corpus, tok, members,
                                         options.attr_freq_threshold);
  EXPECT_TRUE(attrs.ok()) << attrs.status();
  if (!attrs.ok()) return {};
  const TermSimilarity sim(options.similarity_kind);
  UnionFind uf(attrs->size());
  for (std::uint32_t i = 0; i < attrs->size(); ++i) {
    for (std::uint32_t j = i + 1; j < attrs->size(); ++j) {
      if (AttributeNameSimilarity((*attrs)[i].terms, (*attrs)[j].terms, sim,
                                  options.tau_t_sim) >=
          options.attr_sim_threshold) {
        uf.Union(i, j);
      }
    }
  }
  std::map<std::uint32_t, std::vector<std::string>> groups;
  for (std::uint32_t i = 0; i < attrs->size(); ++i) {
    groups[uf.Find(i)].push_back((*attrs)[i].canonical);
  }
  std::set<std::vector<std::string>> out;
  for (auto& [root, group] : groups) out.insert(std::move(group));
  return out;
}

TEST(MediationKernelTest, MediatedAttributesEqualTheStringOracle) {
  const Tokenizer tok;
  const Workload ddh = SmallDdh();
  const Workload many = SmallManyDomain();
  for (TermSimilarityKind kind : kKinds) {
    for (double tau : {0.8, 0.5}) {
      MediatorOptions options;
      options.similarity_kind = kind;
      options.tau_t_sim = tau;
      for (const Workload* w : {&ddh, &many}) {
        for (const auto& [label, members] : w->seeds) {
          auto med =
              Mediator::BuildForDomain(w->corpus, tok, members, options);
          ASSERT_TRUE(med.ok()) << med.status();
          std::set<std::vector<std::string>> groups;
          for (const MediatedAttribute& a : med->mediated.attributes) {
            groups.insert(a.members);
          }
          EXPECT_EQ(groups, OracleGroups(w->corpus, tok, members, options))
              << KindName(kind) << " tau " << tau << " domain " << label;
        }
      }
    }
  }
}

/// Fingerprints recorded before the kernel took term ids and a t_sim
/// memo, as {build, build + arrivals}: on the DDH corpus, on the
/// many-domain corpus, and on the many-domain corpus with loose options.
/// The many-domain names are random words, so only the loose options
/// (tau_t_sim 0.3, unkept names mapped by soft candidates) make its
/// mediations depend on the similarity kind.
struct Recorded {
  TermSimilarityKind kind;
  std::uint64_t ddh[2], many[2], many_loose[2];
};
constexpr Recorded kRecorded[] = {
    {TermSimilarityKind::kLcs,
     {1651382547298574307ull, 3112465994816652779ull},
     {3495087889885320550ull, 9243714221174558305ull},
     {16267484642163301714ull, 15466532003264120700ull}},
    {TermSimilarityKind::kStem,
     {13906115637935145959ull, 12852321011402024992ull},
     {3495087889885320550ull, 9243714221174558305ull},
     {4363454595354467073ull, 10907802938465536851ull}},
    {TermSimilarityKind::kExact,
     {10763903290102303403ull, 17455727980017477950ull},
     {3495087889885320550ull, 9243714221174558305ull},
     {4363454595354467073ull, 10907802938465536851ull}},
    {TermSimilarityKind::kLevenshtein,
     {16030511216717853167ull, 2814364812035401733ull},
     {3495087889885320550ull, 9243714221174558305ull},
     {8224306890729017655ull, 11974818306312881812ull}},
    {TermSimilarityKind::kJaroWinkler,
     {5618618966987879130ull, 15606220473877448449ull},
     {3495087889885320550ull, 9243714221174558305ull},
     {12658697747608963982ull, 6686409650954727368ull}},
};

TEST(MediationKernelTest, EveryMediationMatchesItsRecordedFingerprint) {
  const Workload ddh = SmallDdh();
  const Workload many = SmallManyDomain();
  for (const Recorded& r : kRecorded) {
    MediatorOptions options;
    options.similarity_kind = r.kind;
    MediatorOptions loose = options;
    loose.attr_freq_threshold = 0.3;
    loose.attr_sim_threshold = 0.3;
    loose.tau_t_sim = 0.3;
    const auto check = [&](const char* what, const Workload& w,
                           const MediatorOptions& o,
                           const std::uint64_t (&want)[2]) {
      const auto [build, arrivals] = Fingerprints(w, o);
      EXPECT_EQ(build, want[0]) << what << " build, " << KindName(r.kind);
      EXPECT_EQ(arrivals, want[1]) << what << " arrivals, " << KindName(r.kind);
    };
    check("ddh", ddh, options, r.ddh);
    check("many", many, options, r.many);
    check("many loose", many, loose, r.many_loose);
  }
}

TEST(MediationKernelTest, NameSimsAsRecordedAndTermSimsBoundedByDistinctTerms) {
  const Tokenizer tok;
  const Workload w = SmallDdh();
  const Members& members = w.seeds.begin()->second;
  const std::uint64_t names0 = CounterValue("paygo.mediate.name_sims");
  const std::uint64_t terms0 = CounterValue("paygo.mediate.term_sims");
  auto med = Mediator::BuildForDomain(w.corpus, tok, members, {});
  ASSERT_TRUE(med.ok()) << med.status();
  const std::uint64_t name_sims =
      CounterValue("paygo.mediate.name_sims") - names0;
  const std::uint64_t term_sims =
      CounterValue("paygo.mediate.term_sims") - terms0;
  // Recorded before the kernel took term ids and a t_sim memo.
  EXPECT_EQ(name_sims, 605u);

  // Every term the call can score: the kept names' and every member
  // attribute's (the mediated display names are kept names).
  std::set<std::string> distinct;
  for (const DomainAttribute& a : med->tally->names) {
    distinct.insert(a.terms.begin(), a.terms.end());
  }
  for (const auto& [id, prob] : members) {
    for (const std::string& raw : w.corpus.schema(id).attributes) {
      for (std::string& t : tok.Tokenize(raw)) distinct.insert(std::move(t));
    }
  }
  EXPECT_GT(term_sims, 0u);
  EXPECT_LE(term_sims, distinct.size() * distinct.size());
}

TEST(MediationKernelTest, AnArrivalThatScoresNoPairCallsNoKernel) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s0", {"departure city", "arrival city", "date"}), {});
  corpus.Add(Schema("s1", {"departure city", "arrival city"}), {});
  corpus.Add(Schema("s2", {"arrival city", "departure city"}), {});
  const Tokenizer tok;
  auto base =
      Mediator::BuildForDomain(corpus, tok, {{0, 1.0}, {1, 1.0}}, {});
  ASSERT_TRUE(base.ok()) << base.status();
  const std::uint64_t names0 = CounterValue("paygo.mediate.name_sims");
  const std::uint64_t terms0 = CounterValue("paygo.mediate.term_sims");
  // s2 keeps every kept name kept and adds none, and each of its raw names
  // is an exact member: nothing is scored.
  auto ext = Mediator::Extend(*base, corpus, tok,
                              {{0, 1.0}, {1, 1.0}, {2, 1.0}}, {});
  ASSERT_TRUE(ext.ok()) << ext.status();
  EXPECT_EQ(CounterValue("paygo.mediate.name_sims"), names0);
  EXPECT_EQ(CounterValue("paygo.mediate.term_sims"), terms0);
}

}  // namespace
}  // namespace paygo
