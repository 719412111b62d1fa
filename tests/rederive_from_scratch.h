#ifndef PAYGO_TESTS_REDERIVE_FROM_SCRATCH_H_
#define PAYGO_TESTS_REDERIVE_FROM_SCRATCH_H_

/// \file rederive_from_scratch.h
/// \brief The scratch reference of the arrival differential tests.
///
/// IntegrationSystem::AddSchema extends everything an arrival touches: the
/// feature postings, one similarity-matrix or neighbor-graph row, the
/// touched domains' mediations (Mediator::Extend) and the classifier
/// (NaiveBayesClassifier::UpdateDomains). RederiveFromScratch recomputes
/// all of that from the system's own corpus, lexicon, features and domain
/// model through the public Restore: a freshly built matrix or graph,
/// every domain mediated from an empty mediation, and a classifier built
/// from scratch whose conditionals (priors included) Restore adopts
/// verbatim. A system grown by arrivals must equal its re-derivation
/// bitwise. The domain model is taken as it is, since an arrival does not
/// re-cluster; the tests check Algorithm 3 on the arrival separately.
///
/// Priors reweighted by click feedback are not carried over: the next
/// arrival re-derives every prior from its domain's mass on both sides.
///
/// ExpectSameMediation compares two mediations bitwise, the way the tests
/// compare a system's mediations with its re-derivation's.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "classify/naive_bayes.h"
#include "core/integration_system.h"
#include "mediate/mediator.h"
#include "util/status.h"

namespace paygo {

inline Result<std::unique_ptr<IntegrationSystem>> RederiveFromScratch(
    const IntegrationSystem& sys) {
  std::vector<DomainConditionals> conds;
  if (sys.has_classifier()) {
    PAYGO_ASSIGN_OR_RETURN(
        NaiveBayesClassifier clf,
        NaiveBayesClassifier::Build(sys.domains(), sys.features(),
                                    sys.corpus().size(),
                                    sys.options().classifier));
    conds = clf.conditionals();
  }
  return IntegrationSystem::Restore(sys.corpus(), sys.options(),
                                    sys.domains(), std::move(conds),
                                    sys.lexicon().terms(), sys.features());
}

/// Members, mediated attributes (name, members, weight) and every
/// mapping alternative (target, probability) equal, doubles bitwise.
inline void ExpectSameMediation(const DomainMediation& a,
                                const DomainMediation& b,
                                const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(a.members.size(), b.members.size());
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    EXPECT_EQ(a.members[i].first, b.members[i].first);
    EXPECT_EQ(a.members[i].second, b.members[i].second);
  }
  ASSERT_EQ(a.mediated.size(), b.mediated.size());
  for (std::size_t m = 0; m < a.mediated.size(); ++m) {
    EXPECT_EQ(a.mediated.attributes[m].name, b.mediated.attributes[m].name);
    EXPECT_EQ(a.mediated.attributes[m].members,
              b.mediated.attributes[m].members);
    EXPECT_EQ(a.mediated.attributes[m].weight,
              b.mediated.attributes[m].weight);
  }
  ASSERT_EQ(a.mappings.size(), b.mappings.size());
  for (std::size_t i = 0; i < a.mappings.size(); ++i) {
    const ProbabilisticMapping& x = a.mappings[i];
    const ProbabilisticMapping& y = b.mappings[i];
    EXPECT_EQ(x.schema_id, y.schema_id);
    ASSERT_EQ(x.alternatives.size(), y.alternatives.size());
    for (std::size_t k = 0; k < x.alternatives.size(); ++k) {
      EXPECT_EQ(x.alternatives[k].target, y.alternatives[k].target);
      EXPECT_EQ(x.alternatives[k].probability, y.alternatives[k].probability);
    }
  }
}

}  // namespace paygo

#endif  // PAYGO_TESTS_REDERIVE_FROM_SCRATCH_H_
