#include "schema/feature_vector.h"

#include <gtest/gtest.h>

#include "text/term_similarity.h"
#include "util/random.h"

namespace paygo {
namespace {

TEST(FeatureVectorTest, ExactTermsSetTheirOwnBits) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s1", {"make", "model"}), {});
  corpus.Add(Schema("s2", {"title", "director"}), {});
  Tokenizer tok;
  const Lexicon lex = Lexicon::Build(corpus, tok);
  FeatureVectorizer vec(lex);
  const auto features = vec.VectorizeCorpus();
  ASSERT_EQ(features.size(), 2u);
  EXPECT_TRUE(features[0].Test(*lex.IndexOf("make")));
  EXPECT_TRUE(features[0].Test(*lex.IndexOf("model")));
  EXPECT_FALSE(features[0].Test(*lex.IndexOf("title")));
  EXPECT_TRUE(features[1].Test(*lex.IndexOf("title")));
}

TEST(FeatureVectorTest, SimilarTermsAlsoSetBits) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s1", {"author"}), {});
  corpus.Add(Schema("s2", {"authors"}), {});
  Tokenizer tok;
  const Lexicon lex = Lexicon::Build(corpus, tok);
  FeatureVectorizer vec(lex);  // tau_t_sim = 0.8
  const auto features = vec.VectorizeCorpus();
  // t_sim(author, authors) = 12/13 >= 0.8, so each schema sets BOTH bits
  // and the two feature vectors are identical.
  EXPECT_TRUE(features[0].Test(*lex.IndexOf("authors")));
  EXPECT_TRUE(features[1].Test(*lex.IndexOf("author")));
  EXPECT_TRUE(features[0] == features[1]);
}

TEST(FeatureVectorTest, ThresholdOneKeepsOnlyExactMatches) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s1", {"author"}), {});
  corpus.Add(Schema("s2", {"authors"}), {});
  Tokenizer tok;
  const Lexicon lex = Lexicon::Build(corpus, tok);
  FeatureVectorizerOptions opts;
  opts.tau_t_sim = 1.0;
  FeatureVectorizer vec(lex, opts);
  const auto features = vec.VectorizeCorpus();
  EXPECT_FALSE(features[0].Test(*lex.IndexOf("authors")));
  EXPECT_TRUE(features[0].Test(*lex.IndexOf("author")));
}

TEST(FeatureVectorTest, ExternalTermsMatchLexicon) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s1", {"departure airport", "destination airport"}), {});
  Tokenizer tok;
  const Lexicon lex = Lexicon::Build(corpus, tok);
  FeatureVectorizer vec(lex);
  // Query keyword "departures" (not in the lexicon) should still set the
  // "departure" bit.
  const DynamicBitset f = vec.VectorizeExternalTerms({"departures"});
  EXPECT_TRUE(f.Test(*lex.IndexOf("departure")));
  EXPECT_FALSE(f.Test(*lex.IndexOf("destination")));
}

TEST(FeatureVectorTest, UnknownExternalTermsSetNothing) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s1", {"make", "model"}), {});
  Tokenizer tok;
  const Lexicon lex = Lexicon::Build(corpus, tok);
  FeatureVectorizer vec(lex);
  EXPECT_TRUE(vec.VectorizeExternalTerms({"zzzzz"}).None());
  EXPECT_TRUE(vec.VectorizeExternalTerms({}).None());
}

/// Property: the vectorizer agrees with Algorithm 1's literal definition
/// F_i[j] = [max over t in T_i of t_sim(L_j, t) >= tau] on a randomized
/// corpus, for several thresholds and both similarity kinds.
struct Alg1Param {
  double tau;
  TermSimilarityKind kind;
};

class FeatureVectorPropertyTest : public ::testing::TestWithParam<Alg1Param> {
};

TEST_P(FeatureVectorPropertyTest, AgreesWithLiteralAlgorithm1) {
  const Alg1Param param = GetParam();
  Rng rng(42);
  const std::vector<std::string> words = {
      "title",   "titles",  "author", "authors",   "year",     "years",
      "price",   "prices",  "maker",  "making",    "departure",
      "departures", "rating", "ratings", "model", "models"};
  SchemaCorpus corpus;
  for (int i = 0; i < 12; ++i) {
    std::vector<std::string> attrs;
    const std::size_t n = 2 + rng.NextBelow(4);
    for (std::size_t k = 0; k < n; ++k) {
      attrs.push_back(words[rng.NextBelow(words.size())]);
    }
    std::string name = "s";
    name += std::to_string(i);
    corpus.Add(Schema(name, attrs), {});
  }
  Tokenizer tok;
  const Lexicon lex = Lexicon::Build(corpus, tok);
  FeatureVectorizerOptions opts;
  opts.tau_t_sim = param.tau;
  opts.similarity_kind = param.kind;
  FeatureVectorizer vec(lex, opts);
  const auto features = vec.VectorizeCorpus();

  TermSimilarity sim(param.kind);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::vector<std::string> ti =
        tok.TokenizeAll(corpus.schema(i).attributes);
    for (std::size_t j = 0; j < lex.dim(); ++j) {
      double best = 0.0;
      for (const std::string& t : ti) {
        best = std::max(best, sim.Compute(lex.term(j), t));
      }
      EXPECT_EQ(features[i].Test(j), best >= param.tau)
          << "schema " << i << " term " << lex.term(j);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TauAndKind, FeatureVectorPropertyTest,
    ::testing::Values(Alg1Param{0.8, TermSimilarityKind::kLcs},
                      Alg1Param{0.9, TermSimilarityKind::kLcs},
                      Alg1Param{0.7, TermSimilarityKind::kLcs},
                      Alg1Param{1.0, TermSimilarityKind::kExact},
                      Alg1Param{0.5, TermSimilarityKind::kStem}));

}  // namespace
}  // namespace paygo
