#include "mediate/mediator.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace paygo {
namespace {

SchemaCorpus BiblioCorpus() {
  SchemaCorpus corpus;
  corpus.Add(Schema("s0", {"title", "authors", "year"}), {});
  corpus.Add(Schema("s1", {"Title", "author", "publisher"}), {});
  corpus.Add(Schema("s2", {"paper title", "year", "venue"}), {});
  return corpus;
}

TEST(CanonicalAttributeNameTest, NormalizesCaseAndDelimiters) {
  EXPECT_EQ(CanonicalAttributeName("First Name"), "first name");
  EXPECT_EQ(CanonicalAttributeName("Day/Time"), "day time");
  EXPECT_EQ(CanonicalAttributeName("  title "), "title");
  EXPECT_EQ(CanonicalAttributeName("e-mail_address"), "e mail address");
}

TEST(AttributeNameSimilarityTest, DiceOverSoftTermMatches) {
  Tokenizer tok;
  TermSimilarity sim(TermSimilarityKind::kLcs);
  const auto a = tok.Tokenize("first name");
  const auto b = tok.Tokenize("last name");
  // One of two terms matches on each side: (1+1)/(2+2) = 0.5.
  EXPECT_DOUBLE_EQ(AttributeNameSimilarity(a, b, sim, 0.8), 0.5);
  EXPECT_DOUBLE_EQ(
      AttributeNameSimilarity(tok.Tokenize("title"), tok.Tokenize("title"),
                              sim, 0.8),
      1.0);
  EXPECT_DOUBLE_EQ(
      AttributeNameSimilarity(tok.Tokenize("make"), tok.Tokenize("title"),
                              sim, 0.8),
      0.0);
}

TEST(MediatorTest, GroupsSimilarAttributeNames) {
  const SchemaCorpus corpus = BiblioCorpus();
  Tokenizer tok;
  MediatorOptions opts;
  opts.attr_freq_threshold = 0.0;  // keep everything
  const auto med = Mediator::BuildForDomain(
      corpus, tok, {{0, 1.0}, {1, 1.0}, {2, 1.0}}, opts);
  ASSERT_TRUE(med.ok()) << med.status();
  // "title", "paper title" (similar), "authors"/"author", "year",
  // "publisher", "venue".
  const int title = med->mediated.FindByMember("title");
  const int paper_title = med->mediated.FindByMember("paper title");
  ASSERT_GE(title, 0);
  EXPECT_EQ(title, paper_title);
  const int author = med->mediated.FindByMember("author");
  const int authors = med->mediated.FindByMember("authors");
  ASSERT_GE(author, 0);
  EXPECT_EQ(author, authors);
  EXPECT_NE(title, author);
}

TEST(MediatorTest, FrequencyThresholdFiltersRareAttributes) {
  const SchemaCorpus corpus = BiblioCorpus();
  Tokenizer tok;
  MediatorOptions opts;
  opts.attr_freq_threshold = 0.5;  // attribute must appear in >= half
  const auto med = Mediator::BuildForDomain(
      corpus, tok, {{0, 1.0}, {1, 1.0}, {2, 1.0}}, opts);
  ASSERT_TRUE(med.ok());
  // "year" appears in 2/3 schemas (kept); "publisher" and "venue" in 1/3
  // (dropped).
  EXPECT_GE(med->mediated.FindByMember("year"), 0);
  EXPECT_EQ(med->mediated.FindByMember("publisher"), -1);
  EXPECT_EQ(med->mediated.FindByMember("venue"), -1);
}

TEST(MediatorTest, MembershipWeightsAffectFrequencies) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s0", {"alpha"}), {});
  corpus.Add(Schema("s1", {"beta"}), {});
  Tokenizer tok;
  MediatorOptions opts;
  opts.attr_freq_threshold = 0.5;
  // s1 has tiny membership, so "beta"'s weighted frequency is
  // 0.1/1.1 < 0.5 and it is dropped.
  const auto med =
      Mediator::BuildForDomain(corpus, tok, {{0, 1.0}, {1, 0.1}}, opts);
  ASSERT_TRUE(med.ok());
  EXPECT_GE(med->mediated.FindByMember("alpha"), 0);
  EXPECT_EQ(med->mediated.FindByMember("beta"), -1);
}

TEST(MediatorTest, MappingsCoverEveryMemberSchema) {
  const SchemaCorpus corpus = BiblioCorpus();
  Tokenizer tok;
  MediatorOptions opts;
  opts.attr_freq_threshold = 0.0;
  const auto med = Mediator::BuildForDomain(
      corpus, tok, {{0, 1.0}, {1, 1.0}, {2, 0.7}}, opts);
  ASSERT_TRUE(med.ok());
  ASSERT_EQ(med->mappings.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    const ProbabilisticMapping& pm = med->mappings[m];
    EXPECT_EQ(pm.schema_id, med->members[m].first);
    ASSERT_FALSE(pm.alternatives.empty());
    double total = 0.0;
    for (const AttributeMapping& alt : pm.alternatives) {
      EXPECT_EQ(alt.target.size(),
                corpus.schema(pm.schema_id).attributes.size());
      total += alt.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    // Alternatives sorted descending by probability.
    for (std::size_t k = 1; k < pm.alternatives.size(); ++k) {
      EXPECT_GE(pm.alternatives[k - 1].probability,
                pm.alternatives[k].probability - 1e-12);
    }
  }
}

TEST(MediatorTest, ExactMemberAttributesMapWithCertainty) {
  const SchemaCorpus corpus = BiblioCorpus();
  Tokenizer tok;
  MediatorOptions opts;
  opts.attr_freq_threshold = 0.0;
  const auto med = Mediator::BuildForDomain(
      corpus, tok, {{0, 1.0}, {1, 1.0}, {2, 1.0}}, opts);
  ASSERT_TRUE(med.ok());
  // Schema s0's "title" is a member of a mediated attribute, so every
  // alternative maps it there.
  const int title = med->mediated.FindByMember("title");
  for (const AttributeMapping& alt : med->mappings[0].alternatives) {
    EXPECT_EQ(alt.target[0], title);
  }
  EXPECT_DOUBLE_EQ(med->mappings[0].MarginalCorrespondence(0, title), 1.0);
}

TEST(MediatorTest, FilteredAttributesStayUnmapped) {
  const SchemaCorpus corpus = BiblioCorpus();
  Tokenizer tok;
  MediatorOptions opts;
  opts.attr_freq_threshold = 0.5;
  const auto med = Mediator::BuildForDomain(
      corpus, tok, {{0, 1.0}, {1, 1.0}, {2, 1.0}}, opts);
  ASSERT_TRUE(med.ok());
  // s1's "publisher" was filtered out of the mediated schema; it must be
  // unmapped (-1) in every alternative.
  const Schema& s1 = corpus.schema(1);
  const auto it =
      std::find(s1.attributes.begin(), s1.attributes.end(), "publisher");
  const std::size_t pub_idx =
      static_cast<std::size_t>(it - s1.attributes.begin());
  for (const AttributeMapping& alt : med->mappings[1].alternatives) {
    EXPECT_EQ(alt.target[pub_idx], -1);
  }
}

TEST(MediatorTest, AmbiguousAttributeFansOutIntoAlternatives) {
  // Mediated attributes "first name" and "last name" stay separate (Dice
  // 0.5 < 0.65); schema s2's "name" is filtered by frequency, matches both
  // with equal similarity, and must fan out into two equally likely
  // mappings — the probabilistic-mapping behaviour of Section 4.4.
  SchemaCorpus corpus;
  corpus.Add(Schema("s0", {"first name", "last name"}), {});
  corpus.Add(Schema("s1", {"first name", "last name"}), {});
  corpus.Add(Schema("s2", {"name"}), {});
  Tokenizer tok;
  MediatorOptions opts;
  opts.attr_freq_threshold = 0.5;
  const auto med = Mediator::BuildForDomain(
      corpus, tok, {{0, 1.0}, {1, 1.0}, {2, 1.0}}, opts);
  ASSERT_TRUE(med.ok()) << med.status();
  const int first = med->mediated.FindByMember("first name");
  const int last = med->mediated.FindByMember("last name");
  ASSERT_GE(first, 0);
  ASSERT_GE(last, 0);
  ASSERT_NE(first, last);
  const ProbabilisticMapping& pm = med->mappings[2];
  ASSERT_EQ(pm.alternatives.size(), 2u);
  EXPECT_NEAR(pm.alternatives[0].probability, 0.5, 1e-9);
  EXPECT_NEAR(pm.MarginalCorrespondence(0, first), 0.5, 1e-9);
  EXPECT_NEAR(pm.MarginalCorrespondence(0, last), 0.5, 1e-9);
}

TEST(MediatorTest, MappingCountRespectsCap) {
  // Two ambiguous attributes x two candidates each = 4 raw mappings; with
  // a cap of 2 the widest candidate list must be trimmed best-first.
  SchemaCorpus corpus;
  corpus.Add(Schema("s0", {"first name", "last name"}), {});
  corpus.Add(Schema("s1", {"first name", "last name"}), {});
  corpus.Add(Schema("amb", {"name", "names"}), {});
  Tokenizer tok;
  MediatorOptions opts;
  opts.attr_freq_threshold = 0.5;
  opts.max_mappings_per_schema = 2;
  const auto med = Mediator::BuildForDomain(
      corpus, tok, {{0, 1.0}, {1, 1.0}, {2, 1.0}}, opts);
  ASSERT_TRUE(med.ok());
  const ProbabilisticMapping& pm = med->mappings[2];
  EXPECT_LE(pm.alternatives.size(), 2u);
  double total = 0.0;
  for (const AttributeMapping& alt : pm.alternatives) {
    total += alt.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MediatorTest, InvalidInputsRejected) {
  const SchemaCorpus corpus = BiblioCorpus();
  Tokenizer tok;
  EXPECT_TRUE(Mediator::BuildForDomain(corpus, tok, {}, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Mediator::BuildForDomain(corpus, tok, {{9, 1.0}}, {})
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(Mediator::BuildForDomain(corpus, tok, {{0, 0.0}}, {})
                  .status()
                  .IsInvalidArgument());
  MediatorOptions opts;
  opts.attr_freq_threshold = 2.0;
  EXPECT_TRUE(Mediator::BuildForDomain(corpus, tok, {{0, 1.0}}, opts)
                  .status()
                  .IsInvalidArgument());
  // No mapping fits a cap of zero: trimming would pop empty lists.
  opts = {};
  opts.max_mappings_per_schema = 0;
  EXPECT_TRUE(Mediator::BuildForDomain(corpus, tok, {{0, 1.0}}, opts)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace paygo
