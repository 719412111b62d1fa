/// \file scalability.cc
/// \brief Corpus-size scaling of the full offline pipeline — the thesis's
/// motivation is web scale ("an order of 10 million high quality HTML
/// forms"), so the cost curves of every stage matter.
///
/// Sweeps DDH-like corpora from 250 to 4646 schemas (2x the thesis's
/// evaluation) and reports per-stage wall time plus the end-to-end total.
/// The quadratic similarity matrix dominates asymptotically, exactly as the
/// memoization analysis of Section 4.2 predicts; classifier setup stays
/// negligible thanks to the factored engine.

#include <iostream>

#include "bench_util.h"
#include "classify/naive_bayes.h"
#include "mediate/mediator.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main() {
  using namespace paygo;
  std::cout << "=== Pipeline scaling on DDH-like corpora ===\n";
  TablePrinter table({"Schemas", "dim L", "Lexicon(s)", "Features(s)",
                      "SimMatrix(s)", "HAC(s)", "SparseHAC(s)", "Assign(s)",
                      "Mediate(s)", "Classifier(s)", "Total(s)"});
  for (std::size_t n : {250u, 500u, 1000u, 2323u, 4646u}) {
    DdhGeneratorOptions gen;
    gen.num_schemas = n;
    const SchemaCorpus corpus = MakeDdhCorpus(gen);
    WallTimer total;

    WallTimer t;
    Tokenizer tok;
    const Lexicon lexicon = Lexicon::Build(corpus, tok);
    const double t_lex = t.ElapsedSeconds();

    t.Restart();
    FeatureVectorizer vec(lexicon);
    const auto features = vec.VectorizeCorpus();
    const double t_feat = t.ElapsedSeconds();

    t.Restart();
    const SimilarityMatrix sims(features);
    const double t_sims = t.ElapsedSeconds();

    t.Restart();
    HacOptions hac;
    hac.tau_c_sim = 0.25;
    const auto clustering = Hac::Run(features, sims, hac);
    const double t_hac = t.ElapsedSeconds();

    // The graph path skips the dense matrix entirely: time it end to end
    // (graph build + per-component clustering) for the comparison column.
    // DDH is its worst case (a few huge tau-components), so cap the size.
    double t_sparse = -1.0;
    if (n <= 2323) {
      t.Restart();
      const auto sparse_clustering = bench::ClusterOverGraph(features, hac);
      t_sparse = t.ElapsedSeconds();
      if (!sparse_clustering.ok() ||
          sparse_clustering->clusters.size() !=
              clustering->clusters.size()) {
        std::cerr << "sparse/dense disagreement at n=" << n << "\n";
        return 1;
      }
    }

    t.Restart();
    AssignmentOptions assign;
    assign.tau_c_sim = 0.25;
    const auto model = AssignProbabilities(sims, *clustering, assign);
    const double t_assign = t.ElapsedSeconds();

    t.Restart();
    std::size_t mediated_attrs = 0;
    for (std::uint32_t r = 0; r < model->num_domains(); ++r) {
      const auto& members = model->SchemasOf(r);
      if (members.empty()) continue;
      const auto med = Mediator::BuildForDomain(corpus, tok, members, {});
      if (med.ok()) mediated_attrs += med->mediated.size();
    }
    const double t_med = t.ElapsedSeconds();

    t.Restart();
    const auto clf =
        NaiveBayesClassifier::Build(*model, features, corpus.size(), {});
    const double t_clf = t.ElapsedSeconds();
    if (!clf.ok()) {
      std::cerr << "classifier failed: " << clf.status() << "\n";
      return 1;
    }

    table.AddRow({std::to_string(n), std::to_string(lexicon.dim()),
                  FormatDouble(t_lex, 3), FormatDouble(t_feat, 3),
                  FormatDouble(t_sims, 3), FormatDouble(t_hac, 3),
                  t_sparse < 0 ? "-" : FormatDouble(t_sparse, 3),
                  FormatDouble(t_assign, 3),
                  FormatDouble(t_med, 3), FormatDouble(t_clf, 3),
                  FormatDouble(total.ElapsedSeconds(), 3)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: lexicon/features grow ~linearly (dim L "
               "saturates at the domain\nvocabulary); the dense similarity "
               "matrix and HAC grow ~quadratically and dominate; the\n"
               "factored classifier setup stays negligible at every size.\n"
               "Note: DDH is the graph path's WORST case (5 huge "
               "domains — nearly all within-\ndomain pairs share features "
               "and each domain is one big tau-component); see the\n"
               "next sweep for its intended regime.\n";

  // --- Part 2: the web shape — many small domains (the thesis's actual
  // motivation). Cross-domain pairs share no features, so the graph
  // path's work is ~linear in n while dense stays quadratic. ---
  std::cout << "\n=== Web-shape scaling: many small domains (the graph "
               "path's regime) ===\n";
  TablePrinter web({"Domains", "Schemas", "dim L", "DenseMatrix+HAC(s)",
                    "SparseHAC(s)"});
  for (std::size_t domains : {100u, 300u, 600u, 1200u, 2400u}) {
    ManyDomainOptions gen;
    gen.num_domains = domains;
    const SchemaCorpus corpus = MakeManyDomainCorpus(gen);
    Tokenizer tok;
    const Lexicon lexicon = Lexicon::Build(corpus, tok);
    FeatureVectorizer vec(lexicon);
    const auto features = vec.VectorizeCorpus();

    // Dense comparison capped: it is already 5+ seconds at 600 domains
    // and quadratic beyond.
    double t_dense = -1.0;
    std::size_t dense_clusters = 0;
    if (domains <= 600) {
      WallTimer t;
      HacOptions dense;
      dense.tau_c_sim = 0.25;
      const auto rd = Hac::Run(features, dense);
      t_dense = t.ElapsedSeconds();
      if (!rd.ok()) return 1;
      dense_clusters = rd->clusters.size();
    }

    WallTimer t;
    HacOptions sparse;
    sparse.tau_c_sim = 0.25;
    const auto rs = bench::ClusterOverGraph(features, sparse);
    const double t_sparse = t.ElapsedSeconds();
    if (!rs.ok()) return 1;
    if (t_dense >= 0 && rs->clusters.size() != dense_clusters) {
      std::cerr << "sparse/dense disagreement at " << domains
                << " domains\n";
      return 1;
    }
    web.AddRow({std::to_string(domains), std::to_string(corpus.size()),
                std::to_string(lexicon.dim()),
                t_dense < 0 ? "-" : FormatDouble(t_dense, 3),
                FormatDouble(t_sparse, 3)});
  }
  web.Print(std::cout);
  std::cout << "\nExpected shape: dense cost grows ~quadratically in the "
               "schema count; sparse cost\ngrows ~linearly (pairs only "
               "within domains), overtaking dense as domains multiply\n"
               "— the regime web-scale pay-as-you-go integration lives "
               "in.\n";
  return 0;
}
