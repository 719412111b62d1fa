// Snapshot v3 round-trip: serialize -> parse must reproduce the system
// bitwise — lexicon, feature vectors, similarity matrix, memberships,
// classifier priors and conditionals — including after the corpus grew
// through the delta write path's AddSchema, where the lexicon is frozen
// and v1's rebuild-from-corpus restore diverges.

#include "persist/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "schema/corpus_io.h"
#include "synth/web_generator.h"

namespace paygo {
namespace {

SystemOptions TestOptions() {
  SystemOptions options;
  options.hac.tau_c_sim = 0.25;
  options.assignment.tau_c_sim = 0.25;
  return options;
}

/// Schemas a live deployment might discover after Build: overlapping with
/// the flight domain but carrying terms the frozen lexicon has never seen.
std::vector<Schema> ChurnSchemas() {
  return {
      Schema("churn-flights", {"departure city", "arrival city",
                               "layover aerodrome", "frequent flyer tier"}),
      Schema("churn-hotels", {"hotel name", "check in", "check out",
                              "pillow menu preference"}),
      Schema("churn-novel", {"zeppelin mooring mast", "dirigible ballast",
                             "aerostat envelope"}),
  };
}

/// Builds the dw corpus system and mutates it through AddSchema so the
/// corpus no longer matches the (frozen) lexicon.
std::unique_ptr<IntegrationSystem> BuildChurnedSystem() {
  auto built = IntegrationSystem::Build(MakeDwCorpus(), TestOptions());
  EXPECT_TRUE(built.ok()) << built.status();
  std::unique_ptr<IntegrationSystem> sys = std::move(*built);
  for (Schema& s : ChurnSchemas()) {
    auto added = sys->AddSchema(std::move(s), {});
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return sys;
}

void ExpectBitwiseEqual(const IntegrationSystem& a,
                        const IntegrationSystem& b) {
  // Corpus.
  ASSERT_EQ(a.corpus().size(), b.corpus().size());
  for (std::size_t i = 0; i < a.corpus().size(); ++i) {
    EXPECT_EQ(a.corpus().schema(i), b.corpus().schema(i)) << "schema " << i;
  }
  // Lexicon: the frozen feature space must survive verbatim.
  ASSERT_EQ(a.lexicon().dim(), b.lexicon().dim());
  EXPECT_EQ(a.lexicon().terms(), b.lexicon().terms());
  // Feature vectors, bit for bit.
  ASSERT_EQ(a.features().size(), b.features().size());
  for (std::size_t i = 0; i < a.features().size(); ++i) {
    EXPECT_TRUE(a.features()[i] == b.features()[i]) << "features " << i;
  }
  // Similarity matrix: Jaccard is a pure function of the features, so
  // identical features must give identical (float) similarities.
  ASSERT_EQ(a.similarities().size(), b.similarities().size());
  for (std::size_t i = 0; i < a.similarities().size(); ++i) {
    for (std::size_t j = 0; j < a.similarities().size(); ++j) {
      EXPECT_EQ(a.similarities().At(i, j), b.similarities().At(i, j))
          << "sims(" << i << "," << j << ")";
    }
  }
  // Domain model: clusters and membership probabilities.
  ASSERT_EQ(a.domains().num_domains(), b.domains().num_domains());
  ASSERT_EQ(a.domains().num_schemas(), b.domains().num_schemas());
  for (std::uint32_t r = 0; r < a.domains().num_domains(); ++r) {
    EXPECT_EQ(a.domains().Cluster(r), b.domains().Cluster(r)) << "cluster "
                                                              << r;
  }
  for (std::uint32_t i = 0; i < a.domains().num_schemas(); ++i) {
    for (std::uint32_t r = 0; r < a.domains().num_domains(); ++r) {
      EXPECT_DOUBLE_EQ(a.domains().Membership(i, r),
                       b.domains().Membership(i, r))
          << "membership(" << i << "," << r << ")";
    }
  }
  // Classifier priors and conditionals (%.17g round-trips doubles exactly).
  ASSERT_TRUE(a.has_classifier());
  ASSERT_TRUE(b.has_classifier());
  const auto& ca = a.classifier().conditionals();
  const auto& cb = b.classifier().conditionals();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t r = 0; r < ca.size(); ++r) {
    EXPECT_DOUBLE_EQ(ca[r].prior, cb[r].prior) << "prior " << r;
    EXPECT_EQ(ca[r], cb[r]) << "conditionals of domain " << r;
  }
}

TEST(ModelIoRoundTripTest, V2RoundTripBitExactOnFreshBuild) {
  auto built = IntegrationSystem::Build(MakeDwCorpus(), TestOptions());
  ASSERT_TRUE(built.ok()) << built.status();
  auto text = SerializeSnapshot(**built);
  ASSERT_TRUE(text.ok()) << text.status();
  auto restored = ParseSnapshot(*text, TestOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectBitwiseEqual(**built, **restored);
}

TEST(ModelIoRoundTripTest, V2RoundTripBitExactAfterAddSchemaChurn) {
  std::unique_ptr<IntegrationSystem> sys = BuildChurnedSystem();
  auto text = SerializeSnapshot(*sys);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text->rfind("paygo-snapshot v3", 0), 0u);
  auto restored = ParseSnapshot(*text, TestOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectBitwiseEqual(*sys, **restored);

  // Ranked classification is identical, scores and all.
  for (const char* q : {"departure airline", "hotel check in",
                        "zeppelin mooring", "salary employer"}) {
    const auto a = sys->ClassifyKeywordQuery(q);
    const auto b = (*restored)->ClassifyKeywordQuery(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size()) << q;
    for (std::size_t k = 0; k < a->size(); ++k) {
      EXPECT_EQ((*a)[k].domain, (*b)[k].domain) << q;
      EXPECT_DOUBLE_EQ((*a)[k].log_posterior, (*b)[k].log_posterior) << q;
    }
  }
}

TEST(ModelIoRoundTripTest, V2SurvivesASecondGeneration) {
  // serialize -> parse -> serialize must be byte-stable (a replica that
  // re-serializes its restored state ships the same bytes).
  std::unique_ptr<IntegrationSystem> sys = BuildChurnedSystem();
  auto text1 = SerializeSnapshot(*sys);
  ASSERT_TRUE(text1.ok()) << text1.status();
  auto restored = ParseSnapshot(*text1, TestOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto text2 = SerializeSnapshot(**restored);
  ASSERT_TRUE(text2.ok()) << text2.status();
  EXPECT_EQ(*text1, *text2);
}

TEST(ModelIoRoundTripTest, V1SnapshotStillLoads) {
  auto built = IntegrationSystem::Build(MakeDwCorpus(), TestOptions());
  ASSERT_TRUE(built.ok()) << built.status();
  const IntegrationSystem& sys = **built;
  // A v1 snapshot has no lexicon/features sections; the legacy rebuild
  // path re-derives both from the corpus, which is exact for a system
  // that never mutated after Build.
  std::string v1 = "paygo-snapshot v1\n";
  v1 += "=== corpus ===\n" + SerializeCorpus(sys.corpus());
  v1 += "=== model ===\n" + SerializeDomainModel(sys.domains());
  v1 += "=== classifier ===\n" +
        SerializeConditionals(sys.classifier().conditionals());
  v1 += "=== end ===\n";
  auto restored = ParseSnapshot(v1, TestOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectBitwiseEqual(sys, **restored);
}

TEST(ModelIoRoundTripTest, V1FormatCannotRepresentChurnedSystem) {
  // The bug v2 exists to fix: after AddSchema introduced out-of-lexicon
  // terms, a v1-style restore re-derives a WIDER lexicon from the grown
  // corpus, and the persisted conditionals no longer fit its dimension.
  std::unique_ptr<IntegrationSystem> sys = BuildChurnedSystem();
  std::string v1 = "paygo-snapshot v1\n";
  v1 += "=== corpus ===\n" + SerializeCorpus(sys->corpus());
  v1 += "=== model ===\n" + SerializeDomainModel(sys->domains());
  v1 += "=== classifier ===\n" +
        SerializeConditionals(sys->classifier().conditionals());
  v1 += "=== end ===\n";
  const auto restored = ParseSnapshot(v1, TestOptions());
  EXPECT_TRUE(restored.status().IsInvalidArgument()) << restored.status();
}

/// The dense classifier section v1 and v2 snapshots carry: a "prior"
/// and a full "q1" line per domain.
std::string DenseClassifierSection(const NaiveBayesClassifier& clf) {
  auto fmt = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::string out = "paygo-classifier v1\ncounts " +
                    std::to_string(clf.num_domains()) + " " +
                    std::to_string(clf.dim()) + "\n";
  for (std::uint32_t r = 0; r < clf.num_domains(); ++r) {
    out += "prior " + std::to_string(r) + " " + fmt(clf.Prior(r)) + "\n";
    out += "q1 " + std::to_string(r);
    for (std::size_t j = 0; j < clf.dim(); ++j) {
      out += " " + fmt(clf.FeatureProb(r, j));
    }
    out += "\n";
  }
  return out;
}

TEST(ModelIoRoundTripTest, DenseV2ClassifierRestoresBitwiseScores) {
  // A snapshot written before the sparse classifier: v2 header, dense q1
  // rows. Restoring compresses each row; the scores must not move a bit.
  std::unique_ptr<IntegrationSystem> sys = BuildChurnedSystem();
  auto text = SerializeSnapshot(*sys);
  ASSERT_TRUE(text.ok()) << text.status();
  std::string v2 = "paygo-snapshot v2\n";
  const std::size_t body = text->find('\n') + 1;
  const std::size_t clf_at = text->find("=== classifier ===\n");
  const std::size_t end_at = text->find("=== end ===\n");
  ASSERT_NE(clf_at, std::string::npos);
  ASSERT_NE(end_at, std::string::npos);
  v2 += text->substr(body, clf_at - body);
  v2 += "=== classifier ===\n" + DenseClassifierSection(sys->classifier());
  v2 += "=== end ===\n";
  auto restored = ParseSnapshot(v2, TestOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  const NaiveBayesClassifier& a = sys->classifier();
  const NaiveBayesClassifier& b = (*restored)->classifier();
  ASSERT_EQ(a.num_domains(), b.num_domains());
  for (std::uint32_t r = 0; r < a.num_domains(); ++r) {
    EXPECT_EQ(a.Prior(r), b.Prior(r)) << "prior " << r;
    for (std::size_t j = 0; j < a.dim(); ++j) {
      EXPECT_EQ(a.FeatureProb(r, j), b.FeatureProb(r, j))
          << "q1(" << r << "," << j << ")";
    }
  }
  for (const char* q : {"departure airline", "hotel check in",
                        "zeppelin mooring", "salary employer", "car"}) {
    const auto sa = sys->ClassifyKeywordQuery(q);
    const auto sb = (*restored)->ClassifyKeywordQuery(q);
    ASSERT_TRUE(sa.ok() && sb.ok()) << q;
    ASSERT_EQ(sa->size(), sb->size()) << q;
    for (std::size_t k = 0; k < sa->size(); ++k) {
      EXPECT_EQ((*sa)[k].domain, (*sb)[k].domain) << q;
      EXPECT_EQ((*sa)[k].log_posterior, (*sb)[k].log_posterior) << q;
    }
  }
}

TEST(ModelIoRoundTripTest, RestoreRejectsABadRowInAnyDomain) {
  // Restore used to check only domain 0's row length, so a short row in
  // any later domain read out of bounds at classify time.
  auto built = IntegrationSystem::Build(MakeDwCorpus(), TestOptions());
  ASSERT_TRUE(built.ok()) << built.status();
  const IntegrationSystem& sys = **built;
  ASSERT_GE(sys.classifier().num_domains(), 2u);
  auto restore = [&](std::vector<DomainConditionals> conds) {
    return IntegrationSystem::Restore(
        sys.corpus(), TestOptions(), sys.domains(), std::move(conds),
        sys.lexicon().terms(), sys.features());
  };
  ASSERT_TRUE(restore(sys.classifier().conditionals()).ok());

  const std::size_t last = sys.classifier().num_domains() - 1;
  auto short_row = sys.classifier().conditionals();
  short_row[last].dim -= 1;
  EXPECT_TRUE(restore(std::move(short_row)).status().IsInvalidArgument());

  auto out_of_range = sys.classifier().conditionals();
  out_of_range[last].exceptions.push_back(
      static_cast<std::uint32_t>(sys.lexicon().dim()));
  out_of_range[last].exception_q1.push_back(0.5);
  EXPECT_TRUE(restore(std::move(out_of_range)).status().IsInvalidArgument());

  auto bad_value = sys.classifier().conditionals();
  bad_value[last].default_q1 = 1.0;
  EXPECT_TRUE(restore(std::move(bad_value)).status().IsInvalidArgument());

  // Every row consistent, but not with the lexicon.
  auto wrong_dim = sys.classifier().conditionals();
  for (DomainConditionals& c : wrong_dim) c.dim += 1;
  EXPECT_TRUE(restore(std::move(wrong_dim)).status().IsInvalidArgument());
}

TEST(ModelIoRoundTripTest, RejectsMalformedV2Sections) {
  std::unique_ptr<IntegrationSystem> sys = BuildChurnedSystem();
  auto text = SerializeSnapshot(*sys);
  ASSERT_TRUE(text.ok());
  // Truncate the features section: dim check must catch the mismatch.
  const std::size_t features_at = text->find("=== features ===");
  ASSERT_NE(features_at, std::string::npos);
  std::string broken = text->substr(0, features_at);
  broken += "=== features ===\ncounts 1 3\nf 0 1 0\n";
  broken += text->substr(text->find("=== model ==="));
  EXPECT_TRUE(ParseSnapshot(broken, TestOptions())
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace paygo
