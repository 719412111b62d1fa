/// \file mediation_delta_test.cc
/// \brief Mediator::Extend against Mediator::BuildForDomain, bitwise.
///
/// Arrivals are folded into per-domain mediations one at a time through
/// the extension path, and after each one the result is compared with a
/// mediation built from scratch over the same member list: members,
/// mediated names, members and weights, and every mapping alternative's
/// targets and probability, all with EXPECT_EQ (doubles included). The
/// streams must exercise every way the mediated schema can move — an
/// attribute crossing the frequency threshold up and down, an order-only
/// change, a display-name change — plus the start points that fold from
/// empty (a non-prefix member list, changed options, a default-constructed
/// base), and the test asserts that each of them occurred.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/integration_system.h"
#include "mediate/mediator.h"
#include "obs/stats.h"
#include "rederive_from_scratch.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"

namespace paygo {
namespace {

using Members = std::vector<std::pair<std::uint32_t, double>>;

std::uint64_t CounterValue(const char* name) {
  return StatsRegistry::Global().GetCounter(name)->value();
}

/// How the mediated schema moved between two consecutive mediations.
struct ChangeCounts {
  int unchanged = 0;
  int crossed_up = 0;    ///< A canonical name entered the mediated schema.
  int crossed_down = 0;  ///< A canonical name left it.
  int order_only = 0;    ///< Same (name, members) pairs, other order.
  int renamed = 0;       ///< Same member groups, another display name.
  int two_domain = 0;    ///< Arrivals that extended two domains.

  void Add(const ChangeCounts& o) {
    unchanged += o.unchanged;
    crossed_up += o.crossed_up;
    crossed_down += o.crossed_down;
    order_only += o.order_only;
    renamed += o.renamed;
    two_domain += o.two_domain;
  }
};

void Classify(const MediatedSchema& before, const MediatedSchema& after,
              ChangeCounts* counts) {
  std::set<std::string> kept_before;
  std::set<std::string> kept_after;
  std::set<std::vector<std::string>> groups_before;
  std::set<std::vector<std::string>> groups_after;
  std::set<std::pair<std::string, std::vector<std::string>>> pairs_before;
  std::set<std::pair<std::string, std::vector<std::string>>> pairs_after;
  for (const MediatedAttribute& a : before.attributes) {
    kept_before.insert(a.members.begin(), a.members.end());
    groups_before.insert(a.members);
    pairs_before.insert({a.name, a.members});
  }
  for (const MediatedAttribute& a : after.attributes) {
    kept_after.insert(a.members.begin(), a.members.end());
    groups_after.insert(a.members);
    pairs_after.insert({a.name, a.members});
  }
  bool up = false;
  bool down = false;
  for (const std::string& c : kept_after) up |= !kept_before.count(c);
  for (const std::string& c : kept_before) down |= !kept_after.count(c);
  counts->crossed_up += up;
  counts->crossed_down += down;
  if (up || down) return;
  if (groups_before != groups_after) return;  // regrouped: not classified
  if (pairs_before != pairs_after) {
    ++counts->renamed;
    return;
  }
  bool same_order = true;
  for (std::size_t m = 0; m < before.size(); ++m) {
    same_order &= before.attributes[m].name == after.attributes[m].name;
  }
  ++(same_order ? counts->unchanged : counts->order_only);
}

/// A membership probability in (0, 1] that is not a short binary
/// fraction, so the weight sums round and their order matters.
double Prob(std::uint32_t id) {
  if (id % 3 != 0) return 1.0;
  return 0.3 + 0.69 * static_cast<double>((id * 2654435761u) % 997) / 997.0;
}

/// Streams \p arrivals (schema id, domains it joins) in order; an arrival
/// that joins two domains splits its probability evenly. Each domain starts from \p seed_members, mediated
/// from scratch; every arrival extends the touched domains' mediations and
/// each result is compared with BuildForDomain.
ChangeCounts FoldStream(
    const SchemaCorpus& corpus, const Tokenizer& tok,
    std::map<std::uint32_t, Members> seed_members,
    const std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>&
        arrivals,
    const MediatorOptions& options) {
  ChangeCounts counts;
  std::map<std::uint32_t, DomainMediation> current;
  for (const auto& [domain, members] : seed_members) {
    auto built = Mediator::BuildForDomain(corpus, tok, members, options);
    EXPECT_TRUE(built.ok()) << built.status();
    current[domain] = *built;
  }
  const std::uint64_t extended0 = CounterValue("paygo.mediate.domains_extended");
  const std::uint64_t rebuilt0 = CounterValue("paygo.mediate.domains_rebuilt");
  std::uint64_t extensions = 0;
  for (const auto& [id, domains] : arrivals) {
    if (domains.size() == 2) ++counts.two_domain;
    for (std::uint32_t domain : domains) {
      Members& members = seed_members[domain];
      const double p = domains.size() == 1 ? Prob(id) : 1.0 / domains.size();
      members.emplace_back(id, p);
      const DomainMediation& before = current[domain];
      if (!before.members.empty()) ++extensions;
      auto ext = Mediator::Extend(before, corpus, tok, members, options);
      auto scratch = Mediator::BuildForDomain(corpus, tok, members, options);
      EXPECT_TRUE(ext.ok()) << ext.status();
      EXPECT_TRUE(scratch.ok()) << scratch.status();
      if (!ext.ok() || !scratch.ok()) return counts;
      ExpectSameMediation(*ext, *scratch,
                          "domain " + std::to_string(domain) + " after " +
                              std::to_string(id));
      if (!before.members.empty()) {
        Classify(before.mediated, ext->mediated, &counts);
      }
      current[domain] = std::move(*ext);
    }
  }
  // Every extension of a non-empty base took the extension path.
  EXPECT_EQ(CounterValue("paygo.mediate.domains_extended") - extended0,
            extensions);
  EXPECT_EQ(CounterValue("paygo.mediate.domains_rebuilt") - rebuilt0, 0u);
  return counts;
}

/// The pool's schemas grouped by their first label, in id order.
std::map<std::string, std::vector<std::uint32_t>> ByLabel(
    const SchemaCorpus& corpus) {
  std::map<std::string, std::vector<std::uint32_t>> out;
  for (std::uint32_t i = 0; i < corpus.size(); ++i) {
    if (!corpus.labels(i).empty()) out[corpus.labels(i)[0]].push_back(i);
  }
  return out;
}

TEST(MediationDeltaTest, LargeDdhDomainsMatchScratchAfterEveryArrival) {
  const SchemaCorpus corpus =
      MakeDdhCorpus({.num_schemas = 1700, .seed = 909});
  const Tokenizer tok;
  const auto by_label = ByLabel(corpus);
  ASSERT_GE(by_label.size(), 2u);
  constexpr std::size_t kSeed = 260;
  constexpr std::size_t kArrivals = 40;
  std::map<std::uint32_t, Members> seeds;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> arrivals;
  std::uint32_t domain = 0;
  for (const auto& [label, ids] : by_label) {
    if (domain == 2) break;
    ASSERT_GT(ids.size(), kSeed + kArrivals) << label;
    for (std::size_t i = 0; i < kSeed; ++i) {
      seeds[domain].emplace_back(ids[i], Prob(ids[i]));
    }
    for (std::size_t i = kSeed; i < kSeed + kArrivals; ++i) {
      arrivals.push_back({ids[i], {domain}});
    }
    ++domain;
  }
  // Interleave the two domains' arrivals by id, as a stream would.
  std::sort(arrivals.begin(), arrivals.end());
  // Every tenth arrival also joins the other domain.
  for (std::size_t i = 0; i < arrivals.size(); i += 10) {
    arrivals[i].second = {0, 1};
  }
  const std::uint64_t reused0 = CounterValue("paygo.mediate.mappings_reused");
  const ChangeCounts counts = FoldStream(corpus, tok, seeds, arrivals, {});
  EXPECT_GT(counts.two_domain, 0);
  EXPECT_GT(counts.unchanged, 0);
  // Unchanged mediated schemas reuse the base's mappings.
  EXPECT_GT(CounterValue("paygo.mediate.mappings_reused"), reused0);
}

TEST(MediationDeltaTest, ManySmallDomainsMatchScratchFromEmpty) {
  const SchemaCorpus corpus = MakeManyDomainCorpus({.num_domains = 60});
  const Tokenizer tok;
  std::map<std::string, std::uint32_t> domain_of;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> arrivals;
  for (std::uint32_t i = 0; i < corpus.size(); ++i) {
    const auto [it, inserted] = domain_of.try_emplace(
        corpus.labels(i)[0], static_cast<std::uint32_t>(domain_of.size()));
    arrivals.push_back({i, {it->second}});
  }
  // Every domain starts from a default-constructed base.
  ChangeCounts counts = FoldStream(corpus, tok, {}, arrivals, {});
  // A higher threshold and a looser name similarity make attributes cross
  // the threshold both ways and groups change their display names.
  MediatorOptions strict;
  strict.attr_freq_threshold = 0.3;
  strict.attr_sim_threshold = 0.4;
  counts.Add(FoldStream(corpus, tok, {}, arrivals, strict));
  EXPECT_GT(counts.crossed_up, 0);
  EXPECT_GT(counts.crossed_down, 0);
}

/// Hand-made streams for the two moves a single attribute can make without
/// entering or leaving the mediated schema.
TEST(MediationDeltaTest, OrderOnlyAndNameChangesMatchScratch) {
  SchemaCorpus corpus;
  // s1 moves "year" to the front (order only); s2 adds "titles", which
  // groups with "title", and s3 makes it the heavier spelling (rename).
  corpus.Add(Schema("s0", {"title", "year", "venue"}), {});
  corpus.Add(Schema("s1", {"year"}), {});
  corpus.Add(Schema("s2", {"titles"}), {});
  corpus.Add(Schema("s3", {"titles"}), {});
  const Tokenizer tok;
  MediatorOptions options;
  options.attr_freq_threshold = 0.0;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> arrivals;
  for (std::uint32_t i = 1; i < corpus.size(); ++i) arrivals.push_back({i, {0}});
  const ChangeCounts counts =
      FoldStream(corpus, tok, {{0, {{0, 1.0}}}}, arrivals, options);
  EXPECT_GT(counts.order_only, 0);
  EXPECT_GT(counts.renamed, 0);
}

TEST(MediationDeltaTest, StartPointsFoldFromEmpty) {
  const SchemaCorpus corpus =
      MakeDdhCorpus({.num_schemas = 1000, .seed = 909});
  const Tokenizer tok;
  const auto by_label = ByLabel(corpus);
  const std::vector<std::uint32_t>& ids = by_label.begin()->second;
  ASSERT_GT(ids.size(), 150u);
  Members members;
  for (std::size_t i = 0; i < 30; ++i) members.emplace_back(ids[i], Prob(ids[i]));
  auto base = Mediator::BuildForDomain(corpus, tok, members, {});
  ASSERT_TRUE(base.ok()) << base.status();

  auto check = [&](const DomainMediation& from, const Members& next,
                   const MediatorOptions& options, const char* what,
                   std::uint64_t rebuilds) {
    const std::uint64_t rebuilt0 =
        CounterValue("paygo.mediate.domains_rebuilt");
    auto ext = Mediator::Extend(from, corpus, tok, next, options);
    auto scratch = Mediator::BuildForDomain(corpus, tok, next, options);
    ASSERT_TRUE(ext.ok()) << ext.status();
    ASSERT_TRUE(scratch.ok()) << scratch.status();
    ExpectSameMediation(*ext, *scratch, what);
    EXPECT_EQ(CounterValue("paygo.mediate.domains_rebuilt") - rebuilt0,
              rebuilds)
        << what;
  };

  // A non-prefix member list: one base member's probability changed, and
  // the list reordered.
  Members changed = members;
  changed[3].second = 0.5;
  changed.emplace_back(ids[30], 1.0);
  check(*base, changed, {}, "changed probability", 1);
  Members reordered = members;
  std::swap(reordered[0], reordered[1]);
  check(*base, reordered, {}, "reordered members", 1);
  Members shorter(members.begin(), members.end() - 1);
  check(*base, shorter, {}, "dropped member", 1);

  // Changed options.
  Members grown = members;
  grown.emplace_back(ids[30], 1.0);
  MediatorOptions other;
  other.attr_freq_threshold = 0.25;
  check(*base, grown, other, "changed options", 1);
  other = {};
  other.max_mappings_per_schema = 2;
  check(*base, grown, other, "changed mapping cap", 1);

  // A default-constructed base, and a hand-made one without a tally.
  check(DomainMediation{}, grown, {}, "default-constructed base", 0);
  DomainMediation hand_made = *base;
  hand_made.tally = nullptr;
  check(hand_made, grown, {}, "base without a tally", 1);

  // The extension path proper: one appended member, then a batch (the
  // batch's probabilities must be added one by one after the base's sums,
  // not summed first).
  check(*base, grown, {}, "appended member", 0);
  Members batch = members;
  for (std::size_t i = 30; i < 150; ++i) {
    batch.emplace_back(ids[i], Prob(ids[i]));
  }
  check(*base, batch, {}, "appended batch", 0);
}

TEST(MediationDeltaTest, AppendedMembersAreValidatedLikeScratch) {
  const SchemaCorpus corpus = MakeDdhCorpus({.num_schemas = 50, .seed = 3});
  const Tokenizer tok;
  const Members members = {{0, 1.0}, {1, 1.0}};
  auto base = Mediator::BuildForDomain(corpus, tok, members, {});
  ASSERT_TRUE(base.ok()) << base.status();
  for (const auto& bad : {std::pair<std::uint32_t, double>{99, 1.0},
                          std::pair<std::uint32_t, double>{2, 0.0},
                          std::pair<std::uint32_t, double>{2, 1.5}}) {
    Members next = members;
    next.push_back(bad);
    const auto ext = Mediator::Extend(*base, corpus, tok, next, {});
    const auto scratch = Mediator::BuildForDomain(corpus, tok, next, {});
    ASSERT_FALSE(ext.ok());
    ASSERT_FALSE(scratch.ok());
    EXPECT_EQ(ext.status().code(), scratch.status().code());
    EXPECT_EQ(ext.status().message(), scratch.status().message());
  }
}

/// Item 1 of the mediation cost model: a source attribute's candidate list
/// depends only on its raw string, so it is computed once per build.
TEST(MediationDeltaTest, EachRawAttributeIsMappedOnce) {
  SchemaCorpus corpus;
  const std::vector<std::string> shared = {
      "departure town", "arrival town", "town of departure", "depart date",
      "arrive date"};
  for (int i = 0; i < 100; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    corpus.Add(Schema(name,
                      {"departure city", "arrival city",
                       shared[static_cast<std::size_t>(i) % shared.size()]}),
               {});
  }
  const Tokenizer tok;
  MediatorOptions options;
  options.attr_freq_threshold = 0.3;  // the shared names stay unkept
  Members members;
  for (std::uint32_t i = 0; i < 100; ++i) members.emplace_back(i, 1.0);
  const std::uint64_t sims0 = CounterValue("paygo.mediate.name_sims");
  auto med = Mediator::BuildForDomain(corpus, tok, members, options);
  ASSERT_TRUE(med.ok()) << med.status();
  const std::uint64_t sims = CounterValue("paygo.mediate.name_sims") - sims0;
  const std::size_t kept = 2;  // departure city, arrival city
  ASSERT_EQ(med->tally->names.size(), kept + shared.size());
  const std::uint64_t clustering = kept * (kept - 1) / 2;
  ASSERT_GE(sims, clustering);
  EXPECT_LE(sims - clustering, shared.size() * med->mediated.size());
  EXPECT_GT(sims - clustering, 0u);
}

std::size_t RecountMediationBytes(const IntegrationSystem& sys) {
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < sys.domains().num_domains(); ++r) {
    total += sys.mediation(r).MemoryBytes();
  }
  return total;
}

/// The system keeps its mediation byte total by difference (old total,
/// minus replaced mediations, plus new ones); it must equal a recount.
TEST(MediationBytesTest, RunningTotalMatchesRecount) {
  const SchemaCorpus pool = MakeDdhCorpus({.num_schemas = 330, .seed = 5});
  SchemaCorpus base("base");
  for (std::size_t i = 0; i < 300; ++i) base.Add(pool.schema(i), pool.labels(i));
  auto built = IntegrationSystem::Build(base);
  ASSERT_TRUE(built.ok()) << built.status();
  std::unique_ptr<IntegrationSystem> sys = std::move(*built);
  const Gauge* gauge =
      StatsRegistry::Global().GetGauge("paygo.mediations.bytes");
  ASSERT_GT(sys->mediation_bytes(), 0u);
  EXPECT_EQ(sys->mediation_bytes(), RecountMediationBytes(*sys));
  EXPECT_EQ(gauge->value(), static_cast<std::int64_t>(sys->mediation_bytes()));
  for (std::size_t i = 300; i < pool.size(); ++i) {
    std::unique_ptr<IntegrationSystem> next = sys->Clone();
    ASSERT_TRUE(next->AddSchema(pool.schema(i), pool.labels(i)).ok());
    // Every fifth arrival is re-derived through Restore, which mediates
    // every domain from scratch and counts the bytes afresh.
    if (i % 5 == 0) {
      auto rederived = RederiveFromScratch(*next);
      ASSERT_TRUE(rederived.ok()) << rederived.status();
      next = std::move(*rederived);
    }
    EXPECT_EQ(next->mediation_bytes(), RecountMediationBytes(*next)) << i;
    EXPECT_EQ(gauge->value(),
              static_cast<std::int64_t>(next->mediation_bytes()));
    sys = std::move(next);
  }
}

}  // namespace
}  // namespace paygo
