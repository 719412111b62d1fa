/// \file perf_text.cc
/// \brief google-benchmark microbenchmarks for the text substrate:
/// the LCS dynamic program, tokenization, and the similarity index's
/// q-gram count filter on the DDH and the many-domain web lexicons.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "schema/lexicon.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "text/lcs.h"
#include "text/porter_stemmer.h"
#include "text/similarity_index.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace paygo {
namespace {

std::string RandomWord(Rng& rng, std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.NextBelow(26)));
  }
  return s;
}

void BM_LcsDp(benchmark::State& state) {
  Rng rng(3);
  const std::string a = RandomWord(rng, state.range(0));
  const std::string b = RandomWord(rng, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcsLengthDp(a, b));
  }
}
BENCHMARK(BM_LcsDp)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tok;
  const std::vector<std::string> attrs = {
      "departure airport", "MaxNumberOfStudents", "Day/Time",
      "year of publish",   "artist/composer",     "departing (mm/dd/yy)"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.TokenizeAll(attrs));
  }
  state.SetItemsProcessed(state.iterations() * attrs.size());
}
BENCHMARK(BM_Tokenize);

void BM_PorterStem(benchmark::State& state) {
  const std::vector<std::string> words = {
      "departures", "relational", "generalization", "hopping", "publications"};
  for (auto _ : state) {
    for (const std::string& w : words) {
      benchmark::DoNotOptimize(PorterStem(w));
    }
  }
  state.SetItemsProcessed(state.iterations() * words.size());
}
BENCHMARK(BM_PorterStem);

void BM_SimilarityIndexBuild(benchmark::State& state) {
  DdhGeneratorOptions opts;
  opts.num_schemas = static_cast<std::size_t>(state.range(0));
  const SchemaCorpus corpus = MakeDdhCorpus(opts);
  Tokenizer tok;
  const Lexicon lexicon = Lexicon::Build(corpus, tok);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarityIndex(
        lexicon.terms(), TermSimilarity(TermSimilarityKind::kLcs), 0.8));
  }
  state.SetLabel("dim L = " + std::to_string(lexicon.dim()));
}
BENCHMARK(BM_SimilarityIndexBuild)->Arg(200)->Arg(1000)->Arg(2323);

void BM_SimilarityIndexMatch(benchmark::State& state) {
  const SchemaCorpus corpus = MakeDdhCorpus();
  Tokenizer tok;
  const Lexicon lexicon = Lexicon::Build(corpus, tok);
  const SimilarityIndex index(lexicon.terms(),
                              TermSimilarity(TermSimilarityKind::kLcs), 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Match("departures"));
    benchmark::DoNotOptimize(index.Match("professors"));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SimilarityIndexMatch);

/// The web-shape lexicon of MakeManyDomainCorpus at \p num_domains domains
/// (dim L ~ 8 terms per domain).
Lexicon ManyDomainLexicon(std::size_t num_domains) {
  ManyDomainOptions opts;
  opts.num_domains = num_domains;
  return Lexicon::Build(MakeManyDomainCorpus(opts), Tokenizer());
}

void BM_SimilarityIndexBuildWebShape(benchmark::State& state) {
  const Lexicon lexicon =
      ManyDomainLexicon(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarityIndex(
        lexicon.terms(), TermSimilarity(TermSimilarityKind::kLcs), 0.8));
  }
  state.SetLabel("dim L = " + std::to_string(lexicon.dim()));
}
BENCHMARK(BM_SimilarityIndexBuildWebShape)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_SimilarityIndexMatchWebShape(benchmark::State& state) {
  // Probes are lexicon terms with one byte changed, so most of them match
  // nothing and each costs a full filtered scan.
  const Lexicon lexicon =
      ManyDomainLexicon(static_cast<std::size_t>(state.range(0)));
  const SimilarityIndex index(lexicon.terms(),
                              TermSimilarity(TermSimilarityKind::kLcs), 0.8);
  Rng rng(5);
  std::vector<std::string> probes;
  for (int p = 0; p < 256; ++p) {
    std::string t = lexicon.terms()[rng.NextBelow(lexicon.dim())];
    t[rng.NextBelow(t.size())] = 'x';
    probes.push_back(std::move(t));
  }
  for (auto _ : state) {
    for (const std::string& probe : probes) {
      benchmark::DoNotOptimize(index.Match(probe));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probes.size()));
  state.SetLabel("dim L = " + std::to_string(lexicon.dim()));
}
BENCHMARK(BM_SimilarityIndexMatchWebShape)->Arg(1000)->Arg(2000);

}  // namespace
}  // namespace paygo

BENCHMARK_MAIN();
