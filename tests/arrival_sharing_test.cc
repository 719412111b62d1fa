/// \file arrival_sharing_test.cc
/// \brief What an arrival shares, and that sharing never changes a result.
///
/// AddSchema appends the newcomer's feature vector and membership row to
/// blocks that older snapshots also read (util/shared_rows.h), replaces
/// only the model and classifier rows of the domains the newcomer joins,
/// and rescales every other domain's prior from its cached world mass.
/// These tests check:
///   * two clones of one snapshot that each add a different schema,
///     serially or on two threads, equal fresh full-rebuild twins, and the
///     parent keeps its n rows, unchanged;
///   * untouched domains' model and classifier rows, and the old feature
///     rows, are shared by address with the base;
///   * every prior equals ComputeDomainPrior bit for bit;
///   * an arrival on a Restore()d system ranks exactly as one on the
///     never-persisted system;
///   * clustering() after an arrival is the grown model's partition;
///   * AddSchema is failure-atomic;
///   * AppendRows crosses its capacity boundary correctly and keeps
///     sibling views apart when they append on several threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/integration_system.h"
#include "persist/model_io.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "util/shared_rows.h"

namespace paygo {
namespace {

/// A base corpus and two held-out schemas that arrive into it.
struct Fixture {
  SchemaCorpus base;
  SchemaCorpus arrivals;
  SystemOptions options;
};

/// Dense substrate (DDH shape) or sparse_build (many-domain web shape).
Fixture MakeFixture(bool web) {
  Fixture f{SchemaCorpus("base"), SchemaCorpus("arrivals"), {}};
  const SchemaCorpus all =
      web ? MakeManyDomainCorpus({.num_domains = 40, .seed = 11})
          : MakeDdhCorpus({.num_schemas = 150, .seed = 23});
  const std::size_t stride = all.size() / 6;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const bool held = i % stride == stride / 2 && f.arrivals.size() < 6;
    (held ? f.arrivals : f.base).Add(all.schema(i), all.labels(i));
  }
  f.options.sparse_build = web;
  return f;
}

std::vector<std::string> Queries(const SchemaCorpus& corpus) {
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < corpus.size(); i += 5) {
    std::string q;
    for (const std::string& attr : corpus.schema(i).attributes) {
      q += (q.empty() ? "" : " ") + attr;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectSameRankings(const IntegrationSystem& a, const IntegrationSystem& b,
                        const std::vector<std::string>& queries) {
  for (const std::string& q : queries) {
    auto ra = a.ClassifyKeywordQuery(q);
    auto rb = b.ClassifyKeywordQuery(q);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(ra->size(), rb->size());
    for (std::size_t k = 0; k < ra->size(); ++k) {
      EXPECT_EQ((*ra)[k].domain, (*rb)[k].domain) << q;
      EXPECT_EQ((*ra)[k].log_posterior, (*rb)[k].log_posterior) << q;
    }
  }
}

/// Features, model and classifier equal bit for bit.
void ExpectSameSystem(const IntegrationSystem& a, const IntegrationSystem& b,
                      const std::vector<std::string>& queries) {
  ASSERT_EQ(a.features().size(), b.features().size());
  for (std::size_t i = 0; i < a.features().size(); ++i) {
    EXPECT_TRUE(a.features()[i] == b.features()[i]) << "features " << i;
  }
  EXPECT_EQ(a.domains().clusters(), b.domains().clusters());
  ASSERT_EQ(a.domains().num_schemas(), b.domains().num_schemas());
  for (std::uint32_t i = 0; i < a.domains().num_schemas(); ++i) {
    EXPECT_EQ(a.domains().DomainsOf(i), b.domains().DomainsOf(i)) << i;
  }
  for (std::uint32_t r = 0; r < a.domains().num_domains(); ++r) {
    EXPECT_EQ(a.domains().SchemasOf(r), b.domains().SchemasOf(r)) << r;
  }
  EXPECT_EQ(a.classifier().conditionals(), b.classifier().conditionals());
  ExpectSameRankings(a, b, queries);
}

/// \p model equals DomainModel::Build over its own clusters and
/// per-schema rows: WithArrival kept the per-domain member lists in step.
void ExpectSameAsRebuilt(const DomainModel& model) {
  std::vector<DomainModel::Memberships> rows;
  for (std::uint32_t i = 0; i < model.num_schemas(); ++i) {
    rows.push_back(model.DomainsOf(i));
  }
  const DomainModel rebuilt =
      DomainModel::Build(model.clusters().ToVector(), std::move(rows));
  ASSERT_EQ(model.num_domains(), rebuilt.num_domains());
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    EXPECT_EQ(model.SchemasOf(r), rebuilt.SchemasOf(r)) << "domain " << r;
  }
}

/// Everything a reader of \p sys can see of its first rows, deep-copied.
struct Observed {
  std::vector<DynamicBitset> features;
  std::vector<DomainModel::Memberships> memberships;
  std::vector<std::vector<std::uint32_t>> clusters;
  std::vector<DomainConditionals> conditionals;

  explicit Observed(const IntegrationSystem& sys)
      : features(sys.features().begin(), sys.features().end()),
        clusters(sys.domains().clusters().ToVector()),
        conditionals(sys.classifier().conditionals()) {
    for (std::uint32_t i = 0; i < sys.domains().num_schemas(); ++i) {
      memberships.push_back(sys.domains().DomainsOf(i));
    }
  }
  bool operator==(const Observed&) const = default;
};

/// Adds arrival \p j to a full-rebuild clone of \p base.
std::unique_ptr<IntegrationSystem> RebuiltTwin(const IntegrationSystem& base,
                                               const SchemaCorpus& arrivals,
                                               std::size_t j) {
  auto twin = base.Clone();
  twin->set_delta_mutations(false);
  EXPECT_TRUE(twin->AddSchema(arrivals.schema(j), arrivals.labels(j)).ok());
  return twin;
}

class ArrivalSharingTest : public ::testing::TestWithParam<bool> {};

TEST_P(ArrivalSharingTest, SiblingClonesAppendIndependently) {
  const Fixture f = MakeFixture(GetParam());
  const std::vector<std::string> queries = Queries(f.base);
  for (const bool threaded : {false, true}) {
    auto built = IntegrationSystem::Build(f.base, f.options);
    ASSERT_TRUE(built.ok()) << built.status();
    const IntegrationSystem& parent = **built;
    const std::size_t n = parent.features().size();
    const Observed before(parent);

    auto a = parent.Clone();
    auto b = parent.Clone();
    auto add = [&](IntegrationSystem* sys, std::size_t j) {
      EXPECT_TRUE(
          sys->AddSchema(f.arrivals.schema(j), f.arrivals.labels(j)).ok());
    };
    if (threaded) {
      std::thread ta(add, a.get(), 0);
      std::thread tb(add, b.get(), 1);
      ta.join();
      tb.join();
    } else {
      add(a.get(), 0);
      add(b.get(), 1);
      // The first sibling appended into the parent's block; the second
      // found the slot taken and moved to a block of its own.
      EXPECT_TRUE(a->features().SharesBlockWith(parent.features()));
      EXPECT_FALSE(b->features().SharesBlockWith(parent.features()));
    }

    ExpectSameSystem(*a, *RebuiltTwin(parent, f.arrivals, 0), queries);
    ExpectSameSystem(*b, *RebuiltTwin(parent, f.arrivals, 1), queries);
    auto arrival = FeaturizeArrival(parent.tokenizer(), parent.vectorizer(),
                                    f.arrivals.schema(1));
    ASSERT_TRUE(arrival.ok());
    EXPECT_TRUE(b->features().back() == arrival->features);
    ASSERT_EQ(parent.features().size(), n);
    ASSERT_EQ(parent.domains().num_schemas(), n);
    EXPECT_TRUE(Observed(parent) == before) << "parent changed";
  }
}

TEST_P(ArrivalSharingTest, UntouchedRowsAreSharedByAddress) {
  const Fixture f = MakeFixture(GetParam());
  auto built = IntegrationSystem::Build(f.base, f.options);
  ASSERT_TRUE(built.ok()) << built.status();
  std::unique_ptr<IntegrationSystem> cur = (*built)->Clone();
  for (std::size_t j = 0; j < f.arrivals.size(); ++j) {
    auto next = cur->Clone();
    auto added = next->AddSchema(f.arrivals.schema(j), f.arrivals.labels(j));
    ASSERT_TRUE(added.ok()) << added.status();
    ExpectSameAsRebuilt(next->domains());

    // Old feature and membership rows: the same objects, not copies.
    for (std::size_t i = 0; i < cur->features().size(); ++i) {
      ASSERT_EQ(&next->features()[i], &cur->features()[i]) << i;
      ASSERT_EQ(&next->domains().DomainsOf(static_cast<std::uint32_t>(i)),
                &cur->domains().DomainsOf(static_cast<std::uint32_t>(i)));
    }
    std::vector<bool> touched(next->domains().num_domains(), false);
    for (const auto& [domain, prob] : added->memberships) {
      touched[domain] = true;
    }
    const DomainModel& was = cur->domains();
    const DomainModel& now = next->domains();
    std::size_t shared = 0;
    for (std::uint32_t r = 0; r < was.num_domains(); ++r) {
      const bool home = was.Cluster(r) != now.Cluster(r);
      EXPECT_EQ(now.clusters().handle(r) == was.clusters().handle(r), !home)
          << "cluster " << r;
      EXPECT_EQ(now.domain_rows().handle(r) == was.domain_rows().handle(r),
                !touched[r])
          << "members of domain " << r;
      EXPECT_EQ(next->classifier().SharesDomainRow(cur->classifier(), r),
                !touched[r])
          << "classifier row " << r;
      shared += touched[r] ? 0 : 1;
    }
    EXPECT_GT(shared, 0u);
    cur = std::move(next);
  }
}

TEST_P(ArrivalSharingTest, PriorsEqualComputeDomainPrior) {
  const Fixture f = MakeFixture(GetParam());
  auto built = IntegrationSystem::Build(f.base, f.options);
  ASSERT_TRUE(built.ok()) << built.status();
  std::unique_ptr<IntegrationSystem> sys = (*built)->Clone();
  for (std::size_t j = 0; j < f.arrivals.size(); ++j) {
    ASSERT_TRUE(
        sys->AddSchema(f.arrivals.schema(j), f.arrivals.labels(j)).ok());
    const ClassifierOptions& opts = sys->options().classifier;
    for (std::uint32_t r = 0; r < sys->domains().num_domains(); ++r) {
      auto prior = ComputeDomainPrior(sys->domains(), r, sys->corpus().size(),
                                      opts.engine,
                                      opts.max_uncertain_exhaustive);
      ASSERT_TRUE(prior.ok());
      EXPECT_EQ(sys->classifier().Prior(r), *prior)
          << "arrival " << j << " domain " << r;
    }
  }
}

TEST_P(ArrivalSharingTest, RestoredSystemArrivesLikeTheOriginal) {
  const Fixture f = MakeFixture(GetParam());
  auto built = IntegrationSystem::Build(f.base, f.options);
  ASSERT_TRUE(built.ok()) << built.status();
  auto text = SerializeSnapshot(**built);
  ASSERT_TRUE(text.ok()) << text.status();
  auto restored = ParseSnapshot(*text, f.options);
  ASSERT_TRUE(restored.ok()) << restored.status();

  std::unique_ptr<IntegrationSystem> a = (*built)->Clone();
  std::unique_ptr<IntegrationSystem> b = std::move(*restored);
  const std::vector<std::string> queries = Queries(f.base);
  for (std::size_t j = 0; j < f.arrivals.size(); ++j) {
    ASSERT_TRUE(a->AddSchema(f.arrivals.schema(j), f.arrivals.labels(j)).ok());
    ASSERT_TRUE(b->AddSchema(f.arrivals.schema(j), f.arrivals.labels(j)).ok());
    for (std::uint32_t r = 0; r < a->domains().num_domains(); ++r) {
      EXPECT_EQ(a->classifier().Prior(r), b->classifier().Prior(r)) << r;
    }
    ExpectSameRankings(*a, *b, queries);
  }
}

TEST_P(ArrivalSharingTest, ClusteringCoversTheGrownCorpus) {
  const Fixture f = MakeFixture(GetParam());
  auto built = IntegrationSystem::Build(f.base, f.options);
  ASSERT_TRUE(built.ok()) << built.status();
  const IntegrationSystem& parent = **built;
  const HacResult* hac = &parent.clustering();
  ASSERT_FALSE(hac->merges.empty());
  const std::vector<std::vector<std::uint32_t>> parent_clusters =
      hac->clusters;

  std::unique_ptr<IntegrationSystem> sys = parent.Clone();
  for (std::size_t j = 0; j < f.arrivals.size(); ++j) {
    auto added = sys->AddSchema(f.arrivals.schema(j), f.arrivals.labels(j));
    ASSERT_TRUE(added.ok()) << added.status();
    const HacResult& now = sys->clustering();
    // The model's partition, without the merge history of the base run.
    EXPECT_TRUE(now.merges.empty());
    EXPECT_EQ(now.clusters, sys->domains().clusters().ToVector());
    const std::uint32_t home = now.ClusterOf(added->schema_id);
    ASSERT_LT(home, now.clusters.size());
    EXPECT_TRUE(std::any_of(added->memberships.begin(),
                            added->memberships.end(),
                            [&](const auto& m) { return m.first == home; }));
    std::size_t covered = 0;
    for (const auto& cluster : now.clusters) covered += cluster.size();
    EXPECT_EQ(covered, sys->corpus().size());
    // A clone reads the same partition.
    EXPECT_EQ(&sys->Clone()->clustering(), &now);
  }
  // The parent keeps its own HAC result.
  EXPECT_EQ(&parent.clustering(), hac);
  EXPECT_EQ(hac->clusters, parent_clusters);

  // A restored system reports the restored model's partition.
  auto text = SerializeSnapshot(*sys);
  ASSERT_TRUE(text.ok()) << text.status();
  auto restored = ParseSnapshot(*text, f.options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE((*restored)->clustering().merges.empty());
  EXPECT_EQ((*restored)->clustering().clusters,
            sys->clustering().clusters);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ArrivalSharingTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Web" : "Ddh";
                         });

/// Two tight domains of identical schemas; the exhaustive engine may not
/// see a single uncertain schema.
TEST(ArrivalAtomicityTest, FailedAddSchemaLeavesTheSystemUnchanged) {
  SchemaCorpus corpus("two-domains");
  for (int i = 0; i < 3; ++i) {
    corpus.Add(Schema("flight" + std::to_string(i),
                      {"departure", "arrival", "airline", "flight"}));
    corpus.Add(Schema("book" + std::to_string(i),
                      {"title", "author", "isbn", "publisher"}));
  }
  SystemOptions options;
  options.classifier.engine = ClassifierEngine::kExhaustive;
  options.classifier.max_uncertain_exhaustive = 0;
  auto built = IntegrationSystem::Build(corpus, options);
  ASSERT_TRUE(built.ok()) << built.status();
  IntegrationSystem& sys = **built;
  ASSERT_EQ(sys.domains().num_domains(), 2u);
  const Observed before(sys);
  const FeatureRows* features = &sys.features();
  const DomainModel* domains = &sys.domains();
  const NaiveBayesClassifier* classifier = &sys.classifier();
  const HacResult* clustering = &sys.clustering();
  const std::vector<std::string> queries = {"departure airline",
                                            "title isbn", "author flight"};

  // Equally similar to both domains: it joins each with probability 1/2,
  // and the exhaustive engine refuses the now-uncertain domains.
  auto failed = sys.AddSchema(
      Schema("straddle", {"departure", "arrival", "title", "author"}));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsResourceExhausted()) << failed.status();

  EXPECT_EQ(sys.corpus().size(), 6u);
  EXPECT_EQ(&sys.features(), features);
  EXPECT_EQ(&sys.domains(), domains);
  EXPECT_EQ(&sys.classifier(), classifier);
  EXPECT_EQ(&sys.clustering(), clustering);
  EXPECT_EQ(sys.postings().num_schemas(), 6u);
  EXPECT_EQ(sys.similarities().size(), 6u);
  EXPECT_TRUE(Observed(sys) == before);

  // The system still takes a clean arrival, exactly like an untouched one.
  auto twin = IntegrationSystem::Build(corpus, options);
  ASSERT_TRUE(twin.ok());
  const Schema clean("flight9", {"departure", "arrival", "airline", "flight"});
  ASSERT_TRUE(sys.AddSchema(clean).ok());
  ASSERT_TRUE((*twin)->AddSchema(clean).ok());
  ExpectSameSystem(sys, **twin, queries);
}

DynamicBitset Row(std::size_t bit) {
  DynamicBitset row(64);
  row.Set(bit);
  return row;
}

TEST(AppendRowsTest, CrossesItsCapacityBoundary) {
  std::vector<DynamicBitset> initial;
  for (std::size_t i = 0; i < 4; ++i) initial.push_back(Row(i));
  FeatureRows rows(std::move(initial));
  EXPECT_EQ(rows.size(), 4u);
  const std::size_t cap = rows.capacity();
  EXPECT_EQ(cap, 4u + 4u / 2 + 4u);
  const DynamicBitset* first_block = rows.data();

  // Fill the block: every append is in place.
  std::vector<FeatureRows> views = {rows};
  while (rows.size() < cap) {
    rows.push_back(Row(rows.size()));
    EXPECT_EQ(rows.data(), first_block);
    views.push_back(rows);
  }
  // One past capacity: a new block of twice the rows, same contents.
  rows.push_back(Row(cap));
  EXPECT_NE(rows.data(), first_block);
  EXPECT_EQ(rows.capacity(), 2 * cap);
  EXPECT_FALSE(rows.SharesBlockWith(views.back()));
  ASSERT_EQ(rows.size(), cap + 1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i] == Row(i)) << i;
  }
  // Every older view still reads its own prefix from the old block.
  for (std::size_t v = 0; v < views.size(); ++v) {
    ASSERT_EQ(views[v].size(), 4 + v);
    EXPECT_EQ(views[v].data(), first_block);
    for (std::size_t i = 0; i < views[v].size(); ++i) {
      EXPECT_TRUE(views[v][i] == Row(i));
    }
  }
  EXPECT_EQ(rows.MemoryBytes(),
            rows.capacity() * sizeof(DynamicBitset) +
                rows.size() * Row(0).HeapBytes());
}

TEST(AppendRowsTest, SiblingAppendCopiesOnlyItsOwnPrefix) {
  FeatureRows base(std::vector<DynamicBitset>{Row(0), Row(1)});
  FeatureRows a = base;
  FeatureRows b = base;
  a.push_back(Row(10));
  b.push_back(Row(20));
  EXPECT_TRUE(a.SharesBlockWith(base));
  EXPECT_FALSE(b.SharesBlockWith(base));
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_TRUE(a[2] == Row(10));
  EXPECT_TRUE(b[2] == Row(20));
  EXPECT_EQ(base.size(), 2u);
  // A view that ends before the block's last slot also reallocates.
  FeatureRows c = base;
  c.push_back(Row(30));
  EXPECT_FALSE(c.SharesBlockWith(base));
  EXPECT_TRUE(a[2] == Row(10));
  EXPECT_TRUE(c[2] == Row(30));
  // The empty view starts a block of its own.
  FeatureRows empty;
  empty.push_back(Row(5));
  EXPECT_EQ(empty.size(), 1u);
  EXPECT_TRUE(empty[0] == Row(5));
}

TEST(AppendRowsTest, ConcurrentSiblingsEachKeepTheirOwnRows) {
  std::vector<DynamicBitset> initial;
  for (std::size_t i = 0; i < 8; ++i) initial.push_back(Row(i));
  const FeatureRows base(std::move(initial));
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kAppends = 200;
  std::vector<FeatureRows> grown(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FeatureRows mine = base;
      for (std::size_t i = 0; i < kAppends; ++i) {
        mine.push_back(Row((t * 7 + i) % 64));
      }
      grown[t] = std::move(mine);
    });
  }
  for (std::thread& th : threads) th.join();
  std::size_t sharing = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(grown[t].size(), 8 + kAppends);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(grown[t][i] == Row(i));
    for (std::size_t i = 0; i < kAppends; ++i) {
      EXPECT_TRUE(grown[t][8 + i] == Row((t * 7 + i) % 64)) << t << " " << i;
    }
    // Only the thread that claimed slot 8 can still be in base's block,
    // and only until its own appends outgrow it.
    sharing += grown[t].SharesBlockWith(base) ? 1 : 0;
  }
  EXPECT_EQ(sharing, 0u);
  ASSERT_EQ(base.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(base[i] == Row(i));
}

TEST(SharedRowsTest, SetReplacesOneRowAndKeepsCopiesIntact) {
  SharedRows<std::vector<int>> rows(
      std::vector<std::vector<int>>{{1}, {2, 3}, {4}});
  const SharedRows<std::vector<int>> copy = rows;
  rows.Set(1, {7});
  EXPECT_EQ(copy[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(rows[1], (std::vector<int>{7}));
  EXPECT_EQ(rows.handle(0), copy.handle(0));
  EXPECT_NE(rows.handle(1), copy.handle(1));
  EXPECT_FALSE(rows == copy);
  rows.Set(1, {2, 3});
  EXPECT_TRUE(rows == copy);
  EXPECT_EQ(rows.ToVector(), copy.ToVector());
  EXPECT_EQ(copy.MemoryBytes(),
            3 * sizeof(SharedRows<std::vector<int>>::Handle) +
                3 * sizeof(std::vector<int>) + 4 * sizeof(int));
}

}  // namespace
}  // namespace paygo
