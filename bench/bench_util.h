#ifndef PAYGO_BENCH_BENCH_UTIL_H_
#define PAYGO_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// \brief Shared plumbing for the experiment-reproduction binaries.
///
/// Each bench binary regenerates one table or figure of the thesis's
/// Chapter 6. The helpers here run the offline pipeline (Algorithms 1-3)
/// at given parameters and evaluate it with the Section 6.1.2 metrics, so
/// the binaries stay declarative: corpus + parameter grid + print.

#include <cstdint>
#include <vector>

#include "cluster/hac.h"
#include "cluster/linkage.h"
#include "cluster/neighbor_graph.h"
#include "cluster/probabilistic_assignment.h"
#include "eval/clustering_metrics.h"
#include "schema/corpus.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "text/tokenizer.h"

namespace paygo {
namespace bench {

/// Feature-space preparation shared across a tau sweep (Algorithm 1 and
/// the memoized similarity matrix are tau_c_sim-independent).
struct PreparedCorpus {
  SchemaCorpus corpus;
  Tokenizer tokenizer;
  Lexicon lexicon;
  std::vector<DynamicBitset> features;
  SimilarityMatrix sims;

  explicit PreparedCorpus(SchemaCorpus c,
                          FeatureVectorizerOptions feature_options = {})
      : corpus(std::move(c)),
        tokenizer(),
        lexicon(Lexicon::Build(corpus, tokenizer)),
        features(FeatureVectorizer(lexicon, feature_options)
                     .VectorizeCorpus()),
        sims(features) {}
};

/// One clustering run at (linkage, tau) evaluated against the labels.
struct SweepPoint {
  LinkageKind linkage = LinkageKind::kAverage;
  double tau_c_sim = 0.0;
  ClusteringEvaluation eval;
  DomainModel model;
};

/// Runs Algorithms 2+3 at the given parameters and evaluates (theta fixed
/// at the thesis's 0.02 unless overridden).
inline SweepPoint RunClusteringPoint(const PreparedCorpus& prep,
                                     LinkageKind linkage, double tau,
                                     double theta = 0.02) {
  SweepPoint point;
  point.linkage = linkage;
  point.tau_c_sim = tau;
  HacOptions hac;
  hac.linkage = linkage;
  hac.tau_c_sim = tau;
  auto clustering = Hac::Run(prep.features, prep.sims, hac);
  AssignmentOptions assign;
  assign.tau_c_sim = tau;
  assign.theta = theta;
  auto model = AssignProbabilities(prep.sims, *clustering, assign);
  point.model = std::move(*model);
  point.eval = EvaluateClustering(point.model, prep.corpus);
  return point;
}

/// Algorithm 2 without the dense matrix: the exact neighbor graph, then
/// Hac::RunOnGraph. Same merges as Hac::Run on the dense matrix.
inline Result<HacResult> ClusterOverGraph(
    const std::vector<DynamicBitset>& features, const HacOptions& hac) {
  NeighborGraphOptions graph_options;
  graph_options.num_threads = hac.num_threads;
  PAYGO_ASSIGN_OR_RETURN(NeighborGraph graph,
                         NeighborGraph::Build(features, graph_options));
  return Hac::RunOnGraph(graph, hac);
}

/// The tau grid of Figures 6.2-6.6.
inline std::vector<double> FigureTauGrid() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

}  // namespace bench
}  // namespace paygo

#endif  // PAYGO_BENCH_BENCH_UTIL_H_
