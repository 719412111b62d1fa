/// \file ablation_design_choices.cc
/// \brief Ablations of the thesis's design choices (DESIGN.md section 2).
///
///  (a) uncertainty threshold theta: hard assignments (theta = 0) vs the
///      thesis's 0.02 vs looser values — effect on clustering quality and
///      on the number of uncertain schemas the classifier must enumerate;
///  (b) strict Algorithm 3 semantics vs fall-back-to-home-cluster;
///  (c) term-similarity function: LCS-based t_sim vs Porter-stem vs exact
///      match (Section 4.1 proposes the first two);
///  (d) CamelCase splitting on/off (Algorithm 1's splitting step);
///  (e) classifier construction: exact factored vs expected-world vs
///      Monte-Carlo approximations — ranking agreement on real queries.

#include <iostream>

#include "bench_util.h"
#include "classify/approx_classifier.h"
#include "cluster/fuzzy_assignment.h"
#include "classify/naive_bayes.h"
#include "classify/query_featurizer.h"
#include "eval/classification_metrics.h"
#include "synth/query_generator.h"
#include "synth/web_generator.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace paygo;

void ThetaAblation(const bench::PreparedCorpus& prep) {
  std::cout << "--- (a) Uncertainty threshold theta (Avg. Jaccard, tau = "
               "0.25) ---\n";
  TablePrinter table({"theta", "Precision", "Recall", "Uncertain schemas",
                      "Multi-domain schemas"});
  for (double theta : {0.0, 0.02, 0.05, 0.1, 0.3, 0.5}) {
    const bench::SweepPoint point =
        bench::RunClusteringPoint(prep, LinkageKind::kAverage, 0.25, theta);
    std::size_t uncertain = 0, multi = 0;
    for (std::uint32_t r = 0; r < point.model.num_domains(); ++r) {
      uncertain += point.model.UncertainSchemas(r).size();
    }
    for (std::uint32_t i = 0; i < point.model.num_schemas(); ++i) {
      if (point.model.DomainsOf(i).size() > 1) ++multi;
    }
    table.AddRow({FormatDouble(theta, 2),
                  FormatDouble(point.eval.avg_precision, 3),
                  FormatDouble(point.eval.avg_recall, 3),
                  std::to_string(uncertain), std::to_string(multi)});
  }
  table.Print(std::cout);
  std::cout << "Expected: theta = 0 yields hard assignments (no uncertain "
               "schemas); larger theta\nspreads boundary schemas over more "
               "domains, growing classifier setup cost (2^u).\n\n";
}

void StrictnessAblation(const bench::PreparedCorpus& prep) {
  // Max. Jaccard (single-link analog) chains loose clusters whose members
  // can sit below tau average similarity to their own cluster — exactly
  // the case Algorithm 3 leaves unspecified.
  std::cout << "--- (b) Algorithm 3 strict semantics vs home-cluster "
               "fallback (Max. Jaccard, tau = 0.35) ---\n";
  TablePrinter table({"Mode", "Assigned schemas", "Dropped schemas",
                      "Precision", "Recall"});
  for (bool strict : {true, false}) {
    HacOptions hac;
    hac.linkage = LinkageKind::kMax;
    hac.tau_c_sim = 0.35;
    const auto clustering = Hac::Run(prep.features, prep.sims, hac);
    AssignmentOptions assign;
    assign.tau_c_sim = 0.35;
    assign.strict_thesis_semantics = strict;
    const auto model = AssignProbabilities(prep.sims, *clustering, assign);
    std::size_t assigned = 0;
    for (std::uint32_t i = 0; i < model->num_schemas(); ++i) {
      if (!model->DomainsOf(i).empty()) ++assigned;
    }
    const ClusteringEvaluation eval =
        EvaluateClustering(*model, prep.corpus);
    table.AddRow({strict ? "strict (thesis)" : "home-cluster fallback",
                  std::to_string(assigned),
                  std::to_string(model->num_schemas() - assigned),
                  FormatDouble(eval.avg_precision, 3),
                  FormatDouble(eval.avg_recall, 3)});
  }
  table.Print(std::cout);
  std::cout << "Expected: strict semantics silently drops schemas whose "
               "average similarity to their\nown cluster falls below tau; "
               "the fallback keeps them at the cost of precision.\n\n";
}

void FuzzyVsProbabilisticAblation(const bench::PreparedCorpus& prep) {
  std::cout << "--- (b2) Membership model: probabilistic (Algorithm 3) vs "
               "fuzzy c-means style (Section 2.1.1's alternative) ---\n";
  HacOptions hac;
  hac.tau_c_sim = 0.25;
  const auto clustering = Hac::Run(prep.features, prep.sims, hac);

  TablePrinter table({"Membership model", "Precision", "Recall",
                      "Multi-domain schemas"});
  auto report = [&](const std::string& name, const DomainModel& model) {
    std::size_t multi = 0;
    for (std::uint32_t i = 0; i < model.num_schemas(); ++i) {
      if (model.DomainsOf(i).size() > 1) ++multi;
    }
    const ClusteringEvaluation eval = EvaluateClustering(model, prep.corpus);
    table.AddRow({name, FormatDouble(eval.avg_precision, 3),
                  FormatDouble(eval.avg_recall, 3), std::to_string(multi)});
  };
  {
    AssignmentOptions assign;
    assign.tau_c_sim = 0.25;
    const auto model = AssignProbabilities(prep.sims, *clustering, assign);
    report("probabilistic (thesis, theta=0.02)", *model);
  }
  for (double fuzzifier : {1.5, 2.0, 3.0}) {
    FuzzyAssignmentOptions opts;
    opts.fuzzifier = fuzzifier;
    const auto model =
        AssignFuzzyMemberships(prep.sims, *clustering, opts);
    report("fuzzy m=" + FormatDouble(fuzzifier, 1), *model);
  }
  table.Print(std::cout);
  std::cout << "Expected: both express boundary uncertainty; the fuzzy "
               "model spreads membership more\nwidely as m grows, while "
               "the probabilistic model composes directly with the\n"
               "probabilistic mediation of Section 4.4 (the thesis's "
               "reason for choosing it).\n\n";
}

void SimilarityKindAblation() {
  std::cout << "--- (c)+(d) Term similarity function and CamelCase "
               "splitting (tau = 0.25) ---\n";
  TablePrinter table({"t_sim / tokenizer", "dim L", "Precision", "Recall",
                      "Unclustered"});
  struct Config {
    std::string name;
    TermSimilarityKind kind;
    double tau_t_sim;
    bool camel;
  };
  const std::vector<Config> configs = {
      {"LCS 0.8 (thesis)", TermSimilarityKind::kLcs, 0.8, true},
      {"Porter stem", TermSimilarityKind::kStem, 0.5, true},
      {"exact match", TermSimilarityKind::kExact, 1.0, true},
      {"LCS 0.8, no CamelCase split", TermSimilarityKind::kLcs, 0.8, false},
  };
  for (const Config& cfg : configs) {
    SchemaCorpus corpus = MakeDwSsCorpus();
    TokenizerOptions tok_opts;
    tok_opts.split_camel_case = cfg.camel;
    Tokenizer tok(tok_opts);
    Lexicon lexicon = Lexicon::Build(corpus, tok);
    FeatureVectorizerOptions fv;
    fv.similarity_kind = cfg.kind;
    fv.tau_t_sim = cfg.tau_t_sim;
    FeatureVectorizer vec(lexicon, fv);
    const auto features = vec.VectorizeCorpus();
    SimilarityMatrix sims(features);
    HacOptions hac;
    hac.tau_c_sim = 0.25;
    const auto clustering = Hac::Run(features, sims, hac);
    AssignmentOptions assign;
    assign.tau_c_sim = 0.25;
    const auto model = AssignProbabilities(sims, *clustering, assign);
    const ClusteringEvaluation eval = EvaluateClustering(*model, corpus);
    table.AddRow({cfg.name, std::to_string(lexicon.dim()),
                  FormatDouble(eval.avg_precision, 3),
                  FormatDouble(eval.avg_recall, 3),
                  FormatDouble(eval.frac_unclustered, 3)});
  }
  table.Print(std::cout);
  std::cout << "Expected: LCS-based t_sim absorbs surface variation "
               "(plurals) that exact match\nmisses; disabling CamelCase "
               "splitting loses the terms inside concatenated names.\n\n";
}

void ClassifierApproximationAblation(const bench::PreparedCorpus& prep) {
  std::cout << "--- (e) Classifier construction: exact vs approximations "
               "(tau = 0.25, theta = 0.3) ---\n";
  // theta = 0.3 creates genuinely uncertain schemas, so the engines'
  // possible-world treatments actually differ.
  const bench::SweepPoint point =
      bench::RunClusteringPoint(prep, LinkageKind::kAverage, 0.25, 0.3);
  std::vector<std::vector<std::string>> domain_labels;
  for (std::uint32_t r = 0; r < point.model.num_domains(); ++r) {
    domain_labels.push_back(DominantLabels(point.model, r, prep.corpus));
  }
  FeatureVectorizer vectorizer(prep.lexicon);
  QueryFeaturizer featurizer(prep.tokenizer, vectorizer);
  const auto gen = QueryGenerator::Build(prep.corpus, prep.lexicon, {});
  if (!gen.ok()) {
    std::cerr << "query generator failed: " << gen.status() << "\n";
    return;
  }

  struct Engine {
    std::string name;
    NaiveBayesClassifier clf;
  };
  std::vector<Engine> engines;
  {
    auto exact = NaiveBayesClassifier::Build(point.model, prep.features,
                                             prep.corpus.size(), {});
    engines.push_back({"exact factored", std::move(*exact)});
    ApproxClassifierOptions ew;
    ew.kind = ApproxKind::kExpectedWorld;
    engines.push_back({"expected-world",
                       std::move(*BuildApproxClassifier(
                           point.model, prep.features, prep.corpus.size(),
                           ew))});
    ApproxClassifierOptions mc;
    mc.kind = ApproxKind::kMonteCarlo;
    mc.num_samples = 512;
    engines.push_back({"Monte-Carlo 512",
                       std::move(*BuildApproxClassifier(
                           point.model, prep.features, prep.corpus.size(),
                           mc))});
  }

  TablePrinter table({"Engine", "Top-1", "Top-3",
                      "Top-1 agreement with exact"});
  std::vector<std::vector<std::uint32_t>> exact_top1;
  for (std::size_t e = 0; e < engines.size(); ++e) {
    Rng rng(99);
    TopKAccumulator acc;
    std::size_t agree = 0, total = 0;
    for (std::size_t size = 2; size <= 6; ++size) {
      for (int q = 0; q < 40; ++q) {
        const GeneratedQuery query = gen->Generate(size, rng);
        const auto ranking = engines[e].clf.Classify(
            featurizer.FeaturizeTerms(query.keywords));
        acc.Record(ranking, domain_labels, query.target_label);
        if (e == 0) {
          exact_top1.push_back({ranking.empty() ? 0 : ranking[0].domain});
        } else if (!ranking.empty()) {
          agree += (ranking[0].domain == exact_top1[total][0]) ? 1 : 0;
        }
        ++total;
      }
    }
    table.AddRow({engines[e].name, FormatDouble(acc.Top1Fraction(), 3),
                  FormatDouble(acc.Top3Fraction(), 3),
                  e == 0 ? "1.000"
                         : FormatDouble(static_cast<double>(agree) /
                                            static_cast<double>(total),
                                        3)});
  }
  table.Print(std::cout);
  std::cout << "Expected: the approximations track the exact classifier "
               "closely; the factored exact\nclassifier already removes the "
               "exponential setup factor (Chapter 7's future work).\n";
}

}  // namespace

int main() {
  std::cout << "=== Ablation: the thesis's design choices on DW+SS ===\n\n";
  const bench::PreparedCorpus prep(MakeDwSsCorpus());
  ThetaAblation(prep);
  StrictnessAblation(prep);
  FuzzyVsProbabilisticAblation(prep);
  SimilarityKindAblation();
  ClassifierApproximationAblation(prep);
  return 0;
}
