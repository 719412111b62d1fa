/// \file feedback_loop.cc
/// \brief The full pay-as-you-go refinement loop (Chapter 7 future work,
/// implemented): automatic consistency feedback finds clustering suspects,
/// explicit corrections recluster under constraints, implicit clicks tune
/// the classifier, and incrementally arriving schemas join live domains.

#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "classify/naive_bayes.h"
#include "classify/query_featurizer.h"
#include "cluster/incremental.h"
#include "eval/classification_metrics.h"
#include "feedback/consistency.h"
#include "feedback/feedback.h"
#include "integrate/data_source.h"
#include "mediate/mediator.h"
#include "synth/query_generator.h"
#include "synth/tuple_generator.h"
#include "synth/web_generator.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace paygo;

/// (1) Plant a mislabeled schema, let consistency feedback find it, apply
/// the correction, and verify the recluster fixes the assignment.
void ExplicitFeedbackRound(const bench::PreparedCorpus& prep) {
  std::cout << "--- (1) Explicit corrections: constrained reclustering ---\n";
  const bench::SweepPoint before =
      bench::RunClusteringPoint(prep, LinkageKind::kAverage, 0.25);

  // Simulate 12 user corrections: take multi-schema domains whose
  // dominant label disagrees with some member's labels and pin those
  // members to a domain matching their label.
  FeedbackStore store;
  std::size_t corrections = 0;
  for (std::uint32_t r = 0;
       r < before.model.num_domains() && corrections < 12; ++r) {
    const auto dominant = DominantLabels(before.model, r, prep.corpus);
    if (dominant.empty()) continue;
    for (const auto& [schema, prob] : before.model.SchemasOf(r)) {
      const auto& labels = prep.corpus.labels(schema);
      bool agrees = false;
      for (const std::string& l : labels) {
        if (std::find(dominant.begin(), dominant.end(), l) !=
            dominant.end()) {
          agrees = true;
          break;
        }
      }
      if (agrees || labels.empty()) continue;
      // Find an exemplar schema in a domain dominated by this schema's
      // first label.
      for (std::uint32_t r2 = 0; r2 < before.model.num_domains(); ++r2) {
        if (r2 == r || before.model.SchemasOf(r2).empty()) continue;
        const auto dom2 = DominantLabels(before.model, r2, prep.corpus);
        if (std::find(dom2.begin(), dom2.end(), labels[0]) == dom2.end()) {
          continue;
        }
        const std::uint32_t wrong_exemplar =
            before.model.SchemasOf(r)[0].first == schema
                ? before.model.SchemasOf(r).back().first
                : before.model.SchemasOf(r)[0].first;
        if (wrong_exemplar == schema) break;
        if (store
                .RecordCorrection(schema, wrong_exemplar,
                                  before.model.SchemasOf(r2)[0].first)
                .ok()) {
          ++corrections;
        }
        break;
      }
      if (corrections >= 12) break;
    }
  }

  HacOptions hac;
  hac.tau_c_sim = 0.25;
  AssignmentOptions assign;
  assign.tau_c_sim = 0.25;
  const auto after =
      ReclusterWithFeedback(prep.features, prep.sims, hac, assign, store);
  if (!after.ok()) {
    std::cerr << "recluster failed: " << after.status() << "\n";
    return;
  }
  const ClusteringEvaluation eval_before =
      EvaluateClustering(before.model, prep.corpus);
  const ClusteringEvaluation eval_after =
      EvaluateClustering(*after, prep.corpus);
  TablePrinter table({"", "Precision", "Recall"});
  table.AddRow({"before feedback", FormatDouble(eval_before.avg_precision, 3),
                FormatDouble(eval_before.avg_recall, 3)});
  table.AddRow({"after " + std::to_string(corrections) + " corrections",
                FormatDouble(eval_after.avg_precision, 3),
                FormatDouble(eval_after.avg_recall, 3)});
  table.Print(std::cout);
  std::cout << "\n";
}

/// (2) Automatic consistency feedback over synthetic tuples.
void ConsistencyRound(const bench::PreparedCorpus& prep) {
  std::cout << "--- (2) Automatic consistency feedback from retrieved "
               "tuples ---\n";
  const bench::SweepPoint point =
      bench::RunClusteringPoint(prep, LinkageKind::kAverage, 0.25);
  Tokenizer tok;
  // Attach synthetic tuples to every schema.
  std::vector<std::unique_ptr<DataSource>> sources;
  std::vector<const DataSource*> ptrs(prep.corpus.size(), nullptr);
  for (std::uint32_t i = 0; i < prep.corpus.size(); ++i) {
    sources.push_back(std::make_unique<DataSource>(i, prep.corpus.schema(i)));
    FillWithSyntheticTuples(sources.back().get());
    ptrs[i] = sources.back().get();
  }
  std::size_t assessed = 0, suspects = 0;
  double total_consistency = 0.0;
  for (std::uint32_t r = 0; r < point.model.num_domains(); ++r) {
    const auto& members = point.model.SchemasOf(r);
    if (members.size() < 2) continue;
    const auto med = Mediator::BuildForDomain(prep.corpus, tok, members, {});
    if (!med.ok()) continue;
    const auto report = AssessDomainConsistency(*med, ptrs);
    if (!report.ok()) continue;
    ++assessed;
    total_consistency += report->domain_consistency;
    suspects += report->num_suspects;
  }
  std::cout << "assessed " << assessed << " multi-schema domains; mean "
            << "consistency "
            << FormatDouble(assessed ? total_consistency / assessed : 0.0, 3)
            << "; flagged " << suspects
            << " member sources as clustering suspects\n\n";
}

/// (3) Implicit click feedback sharpens classification of an ambiguous
/// query stream.
void ImplicitFeedbackRound(const bench::PreparedCorpus& prep) {
  std::cout << "--- (3) Implicit click feedback on the classifier ---\n";
  const bench::SweepPoint point =
      bench::RunClusteringPoint(prep, LinkageKind::kAverage, 0.25);
  std::vector<std::vector<std::string>> domain_labels;
  for (std::uint32_t r = 0; r < point.model.num_domains(); ++r) {
    domain_labels.push_back(DominantLabels(point.model, r, prep.corpus));
  }
  auto clf = NaiveBayesClassifier::Build(point.model, prep.features,
                                         prep.corpus.size(), {});
  if (!clf.ok()) return;
  FeatureVectorizer vectorizer(prep.lexicon);
  QueryFeaturizer featurizer(prep.tokenizer, vectorizer);
  const auto gen = QueryGenerator::Build(prep.corpus, prep.lexicon, {});
  if (!gen.ok()) return;

  // Simulate a usage period: users click the domain whose labels match
  // the query's target; impressions go to the top-3.
  FeedbackStore store;
  Rng rng(5);
  for (int q = 0; q < 400; ++q) {
    const GeneratedQuery query = gen->Generate(2, rng);
    const auto ranking =
        clf->Classify(featurizer.FeaturizeTerms(query.keywords));
    for (std::size_t k = 0; k < 3 && k < ranking.size(); ++k) {
      store.RecordImpression(ranking[k].domain);
      const auto& labels = domain_labels[ranking[k].domain];
      if (std::find(labels.begin(), labels.end(), query.target_label) !=
          labels.end()) {
        store.RecordClick(ranking[k].domain);
      }
    }
  }
  const auto adjusted = AdjustClassifierWithClicks(*clf, store);
  if (!adjusted.ok()) return;

  // Fresh evaluation queries.
  TablePrinter table({"Classifier", "Top-1", "Top-3"});
  const std::vector<std::pair<std::string, const NaiveBayesClassifier*>>
      variants = {{"before clicks", &*clf}, {"after clicks", &*adjusted}};
  for (const auto& pair : variants) {
    Rng eval_rng(77);
    TopKAccumulator acc;
    for (int q = 0; q < 300; ++q) {
      const GeneratedQuery query = gen->Generate(2, eval_rng);
      acc.Record(pair.second->Classify(
                     featurizer.FeaturizeTerms(query.keywords)),
                 domain_labels, query.target_label);
    }
    table.AddRow({pair.first, FormatDouble(acc.Top1Fraction(), 3),
                  FormatDouble(acc.Top3Fraction(), 3)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

/// (4) Incremental arrival of new sources.
void IncrementalRound() {
  std::cout << "--- (4) Incremental schema arrival ---\n";
  // Build on DW only, then stream SS schemas in.
  SchemaCorpus dw = MakeDwCorpus();
  const SchemaCorpus ss = MakeSsCorpus();
  const bench::PreparedCorpus prep(dw);
  const bench::SweepPoint point =
      bench::RunClusteringPoint(prep, LinkageKind::kAverage, 0.25);

  FeatureVectorizer vectorizer(prep.lexicon);
  IncrementalOptions opts;
  opts.tau_c_sim = 0.25;
  IncrementalClusterer inc(prep.tokenizer, vectorizer, prep.features,
                           point.model, opts);
  std::size_t joined = 0, opened = 0;
  for (std::size_t i = 0; i < ss.size(); ++i) {
    const auto r = inc.AddSchema(ss.schema(i));
    if (!r.ok()) continue;
    (r->created_new_domain ? opened : joined) += 1;
  }
  std::cout << "streamed " << ss.size() << " SS schemas into the DW system: "
            << joined << " joined existing domains, " << opened
            << " opened new domains; average lexicon drift "
            << FormatDouble(inc.AverageDrift(), 3)
            << (inc.RebuildRecommended() ? " -> full rebuild recommended"
                                         : " -> no rebuild needed")
            << "\n";
}

}  // namespace

int main() {
  std::cout << "=== The pay-as-you-go refinement loop (Chapter 7, "
               "implemented) ===\n\n";
  const bench::PreparedCorpus prep(MakeDwSsCorpus());
  ExplicitFeedbackRound(prep);
  ConsistencyRound(prep);
  ImplicitFeedbackRound(prep);
  IncrementalRound();
  return 0;
}
