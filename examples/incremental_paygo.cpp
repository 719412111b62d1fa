/// \file incremental_paygo.cpp
/// \brief The pay-as-you-go lifecycle end-to-end: build small, snapshot,
/// restore, stream in new sources, take corrections, refine.
///
/// Walks the lifecycle the thesis's Chapter 7 sketches:
///   day 0 — build a system over a first batch of sources and persist it;
///   day 1 — restore the snapshot (no reclustering, no classifier setup),
///           stream newly discovered sources into the live model;
///   day 2 — a user corrects a mis-clustered schema; reclustering honors
///           the constraint.
///
/// Run: ./build/examples/incremental_paygo

#include <cstdio>
#include <iostream>

#include "core/integration_system.h"
#include "feedback/feedback.h"
#include "persist/model_io.h"
#include "util/string_util.h"
#include "util/timer.h"

int main() {
  using namespace paygo;
  const std::string snapshot_path = "/tmp/paygo_incremental_example.snapshot";

  // ---- day 0: first batch of sources ----
  SchemaCorpus corpus("day0");
  corpus.Add(Schema("expedia", {"departure airport", "destination airport",
                                "departing", "returning", "airline"}));
  corpus.Add(Schema("orbitz", {"departure airport", "destination",
                               "airline", "passengers"}));
  corpus.Add(Schema("dblp", {"title", "authors", "year of publish",
                             "conference name"}));
  corpus.Add(Schema("citeseer", {"title", "author", "year", "journal"}));
  SystemOptions options;
  options.hac.tau_c_sim = 0.25;
  options.assignment.tau_c_sim = 0.25;

  WallTimer build_timer;
  auto built = IntegrationSystem::Build(corpus, options);
  if (!built.ok()) {
    std::cerr << "build failed: " << built.status() << "\n";
    return 1;
  }
  std::cout << "day 0: built " << (*built)->domains().num_domains()
            << " domains from " << corpus.size() << " sources in "
            << FormatDouble(build_timer.ElapsedMillis(), 1) << " ms\n";
  if (Status s = SaveSnapshot(**built, snapshot_path); !s.ok()) {
    std::cerr << "snapshot failed: " << s << "\n";
    return 1;
  }
  std::cout << "        snapshot saved to " << snapshot_path << "\n";

  // ---- day 1: restore + stream in new sources ----
  WallTimer restore_timer;
  auto restored = LoadSnapshot(snapshot_path, options);
  if (!restored.ok()) {
    std::cerr << "restore failed: " << restored.status() << "\n";
    return 1;
  }
  IntegrationSystem& sys = **restored;
  std::cout << "day 1: restored in "
            << FormatDouble(restore_timer.ElapsedMillis(), 1)
            << " ms (model and classifier reused verbatim)\n";

  const std::vector<Schema> arrivals = {
      Schema("kayak", {"departure airport", "airline", "travel class"}),
      Schema("pubmed", {"title", "authors", "journal", "abstract"}),
      Schema("weatherdb", {"temperature reading", "barometric pressure",
                           "wind gust"}),
  };
  double drift_sum = 0.0;
  std::size_t added = 0;
  for (const Schema& s : arrivals) {
    const auto r = sys.AddSchema(s);
    if (!r.ok()) {
      std::cerr << "  add failed: " << r.status() << "\n";
      continue;
    }
    std::cout << "  + " << s.source_name << " -> "
              << (r->created_new_domain
                      ? "opened new domain " +
                            std::to_string(r->memberships[0].first)
                      : "joined domain " +
                            std::to_string(r->memberships[0].first))
              << " (unseen terms "
              << FormatDouble(r->unseen_term_fraction, 2) << ")\n";
    drift_sum += r->unseen_term_fraction;
    ++added;
  }
  // The frozen lexicon cannot represent unseen terms; once they make up
  // much of the arrivals, RebuildFromScratch re-derives it.
  const double drift = added > 0 ? drift_sum / static_cast<double>(added) : 0;
  std::cout << "  drift " << FormatDouble(drift, 2)
            << (drift > 0.3 ? " -> rebuild recommended"
                            : " -> model still healthy")
            << "\n";

  // ---- day 2: an explicit correction ----
  // Pretend the user decides 'kayak' (schema 4) belongs with the
  // bibliography sources — a deliberately wrong correction to show the
  // constraint machinery obeys the user, not the similarity.
  FeedbackStore store;
  if (Status s = store.RecordCorrection(/*schema=*/4, /*wrong=*/0,
                                        /*right=*/2);
      !s.ok()) {
    std::cerr << "correction rejected: " << s << "\n";
    return 1;
  }
  if (Status s = sys.ApplyFeedback(store); !s.ok()) {
    std::cerr << "recluster failed: " << s << "\n";
    return 1;
  }
  const DomainModel& refined = sys.domains();
  std::cout << "day 2: applied 1 correction; schema 4 now shares a domain "
               "with schema 2: "
            << (refined.DomainsOf(4)[0].first == refined.DomainsOf(2)[0].first
                    ? "yes"
                    : "no")
            << ", and is separated from schema 0: "
            << (refined.DomainsOf(4)[0].first != refined.DomainsOf(0)[0].first
                    ? "yes"
                    : "no")
            << "\n";

  std::remove(snapshot_path.c_str());
  std::cout << "\nThe pay-as-you-go contract: start imprecise, serve "
               "immediately, refine forever.\n";
  return 0;
}
