/// \file output_fingerprint_test.cc
/// \brief Fingerprints of the pipeline's outputs, recorded constants.
///
/// Four FNV-1a fingerprints per system: the HAC merges (slots plus
/// similarity bits), the domain memberships (domain plus probability
/// bits), the classifier (every domain's prior, default, exceptions and
/// exception bits) and the top-5 rankings of fixed keyword queries
/// (domain plus log-posterior bits). Each is compared with a constant
/// recorded before the dense path stopped keeping a similarity matrix:
///
///  - a dense DDH corpus of 1,200 schemas and a sparse_build many-domain
///    corpus, under Avg, Min and Max linkage, with and without must-links
///    and cannot-links;
///  - at 1, 2 and 4 threads (one constant serves all three);
///  - after Build, and again after 20 AddSchema arrivals plus one explicit
///    ApplyFeedback, whose Recluster runs over the grown corpus.
///
/// A changed constant is a changed output, not a test to update. A build
/// with other flags (tools/ci.sh's -march=native lane) must match too.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/integration_system.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"

namespace paygo {
namespace {

/// FNV-1a over the bytes fed to it.
class Fingerprint {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void Double(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The four fingerprints of one system.
struct Prints {
  std::uint64_t merges = 0;
  std::uint64_t memberships = 0;
  std::uint64_t classifier = 0;
  std::uint64_t rankings = 0;

  bool operator==(const Prints&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Prints& p) {
  return os << "{" << p.merges << "ull, " << p.memberships << "ull, "
            << p.classifier << "ull, " << p.rankings << "ull}";
}

/// The fixed queries: the attribute names of twelve schemas spread over
/// the base corpus, joined by spaces.
std::vector<std::string> Queries(const SchemaCorpus& corpus) {
  std::vector<std::string> out;
  for (std::size_t q = 0; q < 12; ++q) {
    const Schema& s = corpus.schema(q * (corpus.size() / 12));
    std::string text;
    for (const std::string& a : s.attributes) {
      text += a;
      text += ' ';
    }
    out.push_back(std::move(text));
  }
  return out;
}

Prints Fingerprints(const IntegrationSystem& sys,
                    const std::vector<std::string>& queries) {
  Prints p;
  Fingerprint merges;
  const HacResult& clustering = sys.clustering();
  merges.U64(clustering.merges.size());
  for (const HacMerge& m : clustering.merges) {
    merges.U64(std::uint64_t{m.slot_a} << 32 | m.slot_b);
    merges.Double(m.similarity);
  }
  merges.U64(clustering.clusters.size());
  for (const auto& cluster : clustering.clusters) {
    merges.U64(cluster.size());
    for (std::uint32_t id : cluster) merges.U64(id);
  }
  p.merges = merges.value();

  Fingerprint memberships;
  const DomainModel& model = sys.domains();
  memberships.U64(model.num_domains());
  for (std::uint32_t i = 0; i < model.num_schemas(); ++i) {
    memberships.U64(model.DomainsOf(i).size());
    for (const auto& [domain, prob] : model.DomainsOf(i)) {
      memberships.U64(domain);
      memberships.Double(prob);
    }
  }
  p.memberships = memberships.value();

  Fingerprint classifier;
  for (const DomainConditionals& c : sys.classifier().conditionals()) {
    classifier.Double(c.prior);
    classifier.U64(c.dim);
    classifier.Double(c.default_q1);
    classifier.U64(c.exceptions.size());
    for (std::size_t k = 0; k < c.exceptions.size(); ++k) {
      classifier.U64(c.exceptions[k]);
      classifier.Double(c.exception_q1[k]);
    }
  }
  p.classifier = classifier.value();

  Fingerprint rankings;
  for (const std::string& q : queries) {
    auto ranking = sys.ClassifyKeywordQuery(q);
    EXPECT_TRUE(ranking.ok()) << ranking.status();
    if (!ranking.ok()) continue;
    for (std::size_t k = 0; k < ranking->size() && k < 5; ++k) {
      rankings.U64((*ranking)[k].domain);
      rankings.Double((*ranking)[k].log_posterior);
    }
  }
  p.rankings = rankings.value();
  return p;
}

/// A generated corpus split into a base and 20 arrivals: every
/// (n/20)-th schema arrives, in corpus order.
struct Workload {
  SchemaCorpus base;
  SchemaCorpus arrivals;
};

Workload Split(const SchemaCorpus& corpus) {
  Workload w;
  const std::size_t step = corpus.size() / 20;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (i % step == step - 1 && w.arrivals.size() < 20) {
      w.arrivals.Add(corpus.schema(i), corpus.labels(i));
    } else {
      w.base.Add(corpus.schema(i), corpus.labels(i));
    }
  }
  return w;
}

const Workload& Ddh() {
  static const Workload w =
      Split(MakeDdhCorpus({.num_schemas = 1220, .seed = 909}));
  return w;
}

const Workload& ManyDomain() {
  static const Workload w =
      Split(MakeManyDomainCorpus({.num_domains = 150, .seed = 909}));
  return w;
}

enum class Shape { kDdh, kManyDomain };

struct Case {
  Shape shape;
  LinkageKind linkage;
  bool constrained;
  Prints built;
  Prints refined;  ///< after the arrivals and the explicit feedback
};

/// Build, then 20 arrivals plus one explicit-feedback round, at
/// \p threads: the two fingerprint sets.
std::pair<Prints, Prints> RunCase(const Case& c, std::size_t threads) {
  const Workload& w = c.shape == Shape::kDdh ? Ddh() : ManyDomain();
  SystemOptions options;
  options.build_mediation = false;
  options.sparse_build = c.shape == Shape::kManyDomain;
  options.hac.linkage = c.linkage;
  options.hac.num_threads = threads;
  options.features.num_threads = threads;
  if (c.constrained) {
    // Must-links inside and across labels, cannot-links that the
    // unconstrained run would violate; no cannot-link inside the
    // must-link closure.
    options.hac.must_link = {{3, 17}, {17, 40}, {100, 900}, {250, 251}};
    options.hac.cannot_link = {{5, 6}, {200, 201}, {3, 1000}, {60, 61}};
  }
  auto built = IntegrationSystem::Build(w.base, options);
  EXPECT_TRUE(built.ok()) << built.status();
  if (!built.ok()) return {};
  IntegrationSystem& sys = **built;
  const std::vector<std::string> queries = Queries(w.base);
  const Prints at_build = Fingerprints(sys, queries);

  for (std::size_t j = 0; j < w.arrivals.size(); ++j) {
    auto added = sys.AddSchema(w.arrivals.schema(j), w.arrivals.labels(j));
    EXPECT_TRUE(added.ok()) << added.status();
  }
  const auto n = static_cast<std::uint32_t>(w.base.size());
  FeedbackStore store;
  EXPECT_TRUE(store.RecordMustLink(n, 7).ok());
  EXPECT_TRUE(store.RecordMustLink(n + 5, n + 6).ok());
  EXPECT_TRUE(store.RecordCannotLink(n + 1, 300).ok());
  EXPECT_TRUE(store.RecordCannotLink(11, 12).ok());
  const Status st = sys.ApplyFeedback(store);
  EXPECT_TRUE(st.ok()) << st;
  return {at_build, Fingerprints(sys, queries)};
}

const char* ShapeName(Shape s) {
  return s == Shape::kDdh ? "ddh" : "many_domain";
}

// Recorded before the dense path dropped its standing similarity matrix.
const Case kCases[] = {
    {Shape::kDdh, LinkageKind::kAverage, false,
     {3168318521551257929ull, 2843876035280398587ull,
      4500277564860242610ull, 10693965829063012957ull},
     {15456995238586102884ull, 5113499130900315229ull,
      16761431679613486559ull, 11880236162579369101ull}},
    {Shape::kDdh, LinkageKind::kAverage, true,
     {2386533100733008882ull, 17821058526557549821ull,
      13578720698449762270ull, 7051633667310492219ull},
     {15456995238586102884ull, 5113499130900315229ull,
      16761431679613486559ull, 11880236162579369101ull}},
    {Shape::kDdh, LinkageKind::kMin, false,
     {8240831976429721064ull, 7230960204220653620ull,
      7467221370032857617ull, 3451539611569354642ull},
     {8299911334565723575ull, 9233006169211912179ull,
      7953279277581949917ull, 11731819410423549753ull}},
    {Shape::kDdh, LinkageKind::kMin, true,
     {7238426285617603848ull, 18423846592071777435ull,
      18265969237500012524ull, 6496668129654705805ull},
     {8299911334565723575ull, 9233006169211912179ull,
      7953279277581949917ull, 11731819410423549753ull}},
    {Shape::kDdh, LinkageKind::kMax, false,
     {18109751552452536246ull, 2009398986962774473ull,
      9917947905368397543ull, 9270511653064603126ull},
     {15247237978769038713ull, 6268835367512875929ull,
      13422614837550733515ull, 3618561614026879908ull}},
    {Shape::kDdh, LinkageKind::kMax, true,
     {6434476966485173148ull, 14901048086300087583ull,
      14547359019165746416ull, 11842862567839146342ull},
     {15247237978769038713ull, 6268835367512875929ull,
      13422614837550733515ull, 3618561614026879908ull}},
    {Shape::kManyDomain, LinkageKind::kAverage, false,
     {11341001346909619702ull, 2412753972958184801ull,
      3570548012735966024ull, 4240536924113067475ull},
     {10749548283200887222ull, 11719580986987729888ull,
      3157662251918329188ull, 9911671222921265339ull}},
    {Shape::kManyDomain, LinkageKind::kAverage, true,
     {11286597812987043849ull, 14748953536764720960ull,
      7252694088280496483ull, 10032540369334796014ull},
     {10749548283200887222ull, 11719580986987729888ull,
      3157662251918329188ull, 9911671222921265339ull}},
    {Shape::kManyDomain, LinkageKind::kMin, false,
     {10361274248833668864ull, 6732357989623501441ull,
      8075321858040570230ull, 10663027221417867958ull},
     {10987244566376510083ull, 17192177922786800115ull,
      507133238748419870ull, 16691703229555172945ull}},
    {Shape::kManyDomain, LinkageKind::kMin, true,
     {12920597982315162982ull, 2248237614421912926ull,
      1367368162450772652ull, 12567702777199921774ull},
     {10987244566376510083ull, 17192177922786800115ull,
      507133238748419870ull, 16691703229555172945ull}},
    {Shape::kManyDomain, LinkageKind::kMax, false,
     {6704501491187089667ull, 3248180163347420191ull,
      10420571089984312369ull, 10464364238675265271ull},
     {15681594897111600353ull, 6907700879246497928ull,
      1043673575543450887ull, 10398671086491238349ull}},
    {Shape::kManyDomain, LinkageKind::kMax, true,
     {15953984392199948246ull, 12369532785440357138ull,
      10678555970938198579ull, 9642709059216340130ull},
     {15681594897111600353ull, 6907700879246497928ull,
      1043673575543450887ull, 10398671086491238349ull}},
};

class OutputFingerprintTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OutputFingerprintTest, EveryCaseMatchesItsRecordedConstants) {
  const std::size_t threads = GetParam();
  for (const Case& c : kCases) {
    const auto [built, refined] = RunCase(c, threads);
    const std::string name = std::string(ShapeName(c.shape)) + " " +
                             LinkageKindName(c.linkage) +
                             (c.constrained ? " constrained" : "") +
                             " threads " + std::to_string(threads);
    EXPECT_EQ(built, c.built) << name << " after Build";
    EXPECT_EQ(refined, c.refined) << name << " after arrivals + feedback";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OutputFingerprintTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace paygo
