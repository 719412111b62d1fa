#include "core/integration_system.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "obs/stats.h"
#include "obs/trace.h"

namespace paygo {

Result<std::unique_ptr<IntegrationSystem>> IntegrationSystem::Build(
    SchemaCorpus corpus, SystemOptions options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("corpus is empty");
  }
  auto sys = std::unique_ptr<IntegrationSystem>(new IntegrationSystem());
  sys->options_ = options;
  sys->corpus_ = std::make_shared<const SchemaCorpus>(std::move(corpus));

  PAYGO_TRACE_SPAN("system.build");

  // Algorithm 1: terms, lexicon, feature vectors.
  {
    PAYGO_TRACE_SPAN("system.build.features");
    sys->tokenizer_ = std::make_shared<const Tokenizer>(options.tokenizer);
    sys->lexicon_ = std::make_shared<const Lexicon>(
        Lexicon::Build(*sys->corpus_, *sys->tokenizer_));
    if (sys->lexicon_->dim() == 0) {
      return Status::InvalidArgument(
          "no terms survived extraction; check the corpus and tokenizer "
          "options");
    }
    sys->vectorizer_ = std::make_shared<const FeatureVectorizer>(
        *sys->lexicon_, options.features);
    sys->features_ = std::make_shared<const FeatureRows>(
        sys->vectorizer_->VectorizeCorpus());
  }

  {
    PAYGO_TRACE_SPAN("system.build.similarity");
    PAYGO_ASSIGN_OR_RETURN(sys->substrate_,
                           sys->BuildSimilarities(*sys->features_));
  }
  PAYGO_RETURN_NOT_OK(sys->Recluster(/*feedback=*/nullptr));
  sys->sources_.resize(sys->corpus_->size());
  return sys;
}

Result<std::unique_ptr<IntegrationSystem>> IntegrationSystem::Restore(
    SchemaCorpus corpus, SystemOptions options, DomainModel model,
    std::vector<DomainConditionals> conditionals,
    std::vector<std::string> lexicon_terms, FeatureRows features) {
  if (corpus.empty()) {
    return Status::InvalidArgument("corpus is empty");
  }
  if (model.num_schemas() != corpus.size()) {
    return Status::InvalidArgument(
        "restored model covers " + std::to_string(model.num_schemas()) +
        " schemas but the corpus has " + std::to_string(corpus.size()));
  }
  auto sys = std::unique_ptr<IntegrationSystem>(new IntegrationSystem());
  sys->options_ = options;
  sys->corpus_ = std::make_shared<const SchemaCorpus>(std::move(corpus));

  sys->tokenizer_ = std::make_shared<const Tokenizer>(options.tokenizer);
  if (!lexicon_terms.empty()) {
    // Frozen-lexicon restore (snapshot v2): the feature space is the one
    // the system was actually serving with, not a re-derivation.
    if (features.size() != sys->corpus_->size()) {
      return Status::InvalidArgument(
          "restored feature vectors cover " +
          std::to_string(features.size()) + " schemas but the corpus has " +
          std::to_string(sys->corpus_->size()));
    }
    const std::size_t dim = lexicon_terms.size();
    for (const DynamicBitset& f : features) {
      if (f.size() != dim) {
        return Status::InvalidArgument(
            "restored feature vector dimension does not match the restored "
            "lexicon");
      }
    }
    sys->lexicon_ = std::make_shared<const Lexicon>(Lexicon::FromTerms(
        std::move(lexicon_terms), *sys->corpus_, *sys->tokenizer_));
    sys->vectorizer_ = std::make_shared<const FeatureVectorizer>(
        *sys->lexicon_, options.features);
    sys->features_ = std::make_shared<const FeatureRows>(std::move(features));
  } else {
    sys->lexicon_ = std::make_shared<const Lexicon>(
        Lexicon::Build(*sys->corpus_, *sys->tokenizer_));
    sys->vectorizer_ = std::make_shared<const FeatureVectorizer>(
        *sys->lexicon_, options.features);
    sys->features_ = std::make_shared<const FeatureRows>(
        sys->vectorizer_->VectorizeCorpus());
  }
  PAYGO_ASSIGN_OR_RETURN(sys->substrate_,
                         sys->BuildSimilarities(*sys->features_));

  // clustering() reads the model's partition (merge history is not
  // persisted — it only serves diagnostics).
  sys->model_clustering_ = std::make_shared<ModelClustering>();
  sys->domains_ = std::make_shared<const DomainModel>(std::move(model));
  const DomainModel& domains = *sys->domains_;

  if (options.build_mediation) {
    Derived derived;
    PAYGO_RETURN_NOT_OK(
        sys->Mediate(*sys->corpus_, domains, /*base=*/nullptr, {}, &derived));
    sys->mediations_ = std::move(derived.mediations);
    sys->mediation_bytes_ = derived.mediation_bytes;
  }

  if (!conditionals.empty()) {
    if (conditionals.size() != domains.num_domains()) {
      return Status::InvalidArgument(
          "restored classifier covers a different number of domains than "
          "the model");
    }
    // Domain 0's dim first (the scoring rows are sized by it), then
    // FromConditionals validates every row against it (shared dim, sorted
    // in-range exceptions, q1 inside (0, 1)), so a bad row in any domain
    // fails here instead of reading out of bounds at classify time.
    if (conditionals[0].dim != sys->lexicon_->dim()) {
      return Status::InvalidArgument(
          "restored classifier feature space (dim " +
          std::to_string(conditionals[0].dim) +
          ") does not match the corpus lexicon (dim " +
          std::to_string(sys->lexicon_->dim()) +
          "); were different tokenizer options used?");
    }
    std::vector<bool> singleton;
    singleton.reserve(domains.num_domains());
    for (std::uint32_t r = 0; r < domains.num_domains(); ++r) {
      singleton.push_back(domains.IsSingletonDomain(r));
    }
    PAYGO_ASSIGN_OR_RETURN(
        NaiveBayesClassifier classifier,
        NaiveBayesClassifier::FromConditionals(std::move(conditionals),
                                               std::move(singleton),
                                               options.classifier));
    sys->classifier_ =
        std::make_shared<const NaiveBayesClassifier>(std::move(classifier));
    sys->query_featurizer_ = std::make_shared<const QueryFeaturizer>(
        *sys->tokenizer_, *sys->vectorizer_);
  }

  sys->sources_.resize(sys->corpus_->size());
  sys->PublishMemory();
  return sys;
}

std::unique_ptr<IntegrationSystem> IntegrationSystem::Clone() const {
  PAYGO_TRACE_SPAN("system.clone");
  auto copy = std::unique_ptr<IntegrationSystem>(new IntegrationSystem());
  copy->options_ = options_;
  // Structural sharing: every shared_ptr<const T> component is aliased, not
  // copied — the vectorizer's lexicon reference and the query featurizer's
  // tokenizer/vectorizer references stay valid because the objects they
  // point at are themselves shared (stable addresses for the life of both
  // systems). Mutators never write through these pointers; they swap in
  // fresh components copy-on-write.
  copy->corpus_ = corpus_;
  copy->tokenizer_ = tokenizer_;
  copy->lexicon_ = lexicon_;
  copy->vectorizer_ = vectorizer_;
  copy->features_ = features_;
  copy->substrate_ = substrate_;
  copy->clustering_ = clustering_;
  copy->model_clustering_ = model_clustering_;
  copy->domains_ = domains_;
  copy->classifier_ = classifier_;
  copy->query_featurizer_ = query_featurizer_;
  copy->mediations_ = mediations_;
  copy->mediation_bytes_ = mediation_bytes_;
  copy->sources_ = sources_;
  return copy;
}

Result<IntegrationSystem::Substrate> IntegrationSystem::BuildSimilarities(
    const FeatureRows& features) const {
  Substrate out;
  out.postings = std::make_shared<const FeaturePostings>(features);
  if (options_.sparse_build) {
    NeighborGraphOptions graph_options = options_.neighbor_graph;
    graph_options.num_threads = options_.hac.num_threads;
    PAYGO_ASSIGN_OR_RETURN(
        NeighborGraph graph,
        NeighborGraph::Build(features, *out.postings, graph_options));
    out.graph = std::make_shared<const NeighborGraph>(std::move(graph));
  }
  return out;
}

Status IntegrationSystem::Recluster(const FeedbackStore* feedback) {
  HacOptions hac = options_.hac;
  if (feedback != nullptr) {
    hac.must_link = feedback->must_link();
    hac.cannot_link = feedback->cannot_link();
  }
  HacResult clustering;
  DomainModel domains;
  if (options_.sparse_build) {
    // Algorithms 2 and 3 over the neighbor graph, one tau-component at a
    // time; no O(n^2) key triangle is allocated.
    const NeighborGraph& graph = *substrate_.graph;
    PAYGO_ASSIGN_OR_RETURN(clustering, Hac::RunOnGraph(graph, hac));
    PAYGO_TRACE_SPAN("system.build.assign");
    PAYGO_ASSIGN_OR_RETURN(
        domains, AssignProbabilities(graph, clustering, options_.assignment,
                                     options_.hac.num_threads));
  } else {
    // Both algorithms compute the similarities from the features where
    // they read them: no matrix outlives either call.
    PAYGO_ASSIGN_OR_RETURN(clustering, Hac::Run(*features_, hac));
    PAYGO_TRACE_SPAN("system.build.assign");
    PAYGO_ASSIGN_OR_RETURN(
        domains, AssignProbabilities(*features_, clustering,
                                     options_.assignment,
                                     options_.hac.num_threads));
  }
  if (feedback != nullptr) {
    domains = PinFeedbackSchemas(clustering, domains, *feedback);
  }
  // Section 4.4 mediation and the Chapter 5 classifier (all heavy
  // classifier work happens here, at setup time).
  PAYGO_ASSIGN_OR_RETURN(Derived derived,
                         DeriveState(*corpus_, *features_, domains,
                                     /*base=*/nullptr, {}));
  clustering_ = std::make_shared<const HacResult>(std::move(clustering));
  model_clustering_ = nullptr;
  domains_ = std::make_shared<const DomainModel>(std::move(domains));
  Adopt(std::move(derived));
  PublishMemory();
  return Status::OK();
}

Result<IntegrationSystem::Derived> IntegrationSystem::DeriveState(
    const SchemaCorpus& corpus, const FeatureRows& features,
    const DomainModel& domains, const IntegrationSystem* base,
    const std::vector<std::uint32_t>& affected_domains) const {
  PAYGO_TRACE_SPAN(base == nullptr ? "system.rebuild_derived"
                                   : "system.rebuild_derived_delta");
  // With a base, a domain is rebuilt only when listed in affected_domains
  // or new; every other domain's members did not change, and
  // Mediator::Extend and the factored conditionals depend only on those.
  std::vector<bool> affected(domains.num_domains(), base == nullptr);
  if (base != nullptr) {
    for (std::uint32_t r : affected_domains) {
      if (r < affected.size()) affected[r] = true;
    }
    for (std::size_t r = base->domains_->num_domains(); r < affected.size();
         ++r) {
      affected[r] = true;
    }
  }
  Derived out;
  if (options_.build_mediation) {
    PAYGO_RETURN_NOT_OK(Mediate(corpus, domains, base, affected, &out));
  }
  if (options_.build_classifier) {
    if (base != nullptr && base->classifier_ != nullptr) {
      PAYGO_TRACE_SPAN("system.update_classifier");
      std::vector<std::uint32_t> touched;
      for (std::uint32_t r = 0; r < affected.size(); ++r) {
        if (affected[r]) touched.push_back(r);
      }
      PAYGO_ASSIGN_OR_RETURN(
          NaiveBayesClassifier clf,
          NaiveBayesClassifier::UpdateDomains(*base->classifier_, domains,
                                              features, corpus.size(),
                                              touched));
      out.classifier =
          std::make_shared<const NaiveBayesClassifier>(std::move(clf));
    } else {
      PAYGO_TRACE_SPAN("system.build_classifier");
      PAYGO_ASSIGN_OR_RETURN(
          NaiveBayesClassifier clf,
          NaiveBayesClassifier::Build(domains, features, corpus.size(),
                                      options_.classifier));
      out.classifier =
          std::make_shared<const NaiveBayesClassifier>(std::move(clf));
    }
  }
  return out;
}

Status IntegrationSystem::Mediate(const SchemaCorpus& corpus,
                                  const DomainModel& domains,
                                  const IntegrationSystem* base,
                                  const std::vector<bool>& affected,
                                  Derived* out) const {
  PAYGO_TRACE_SPAN(base == nullptr ? "system.mediate"
                                   : "system.mediate_delta");
  out->mediations.reserve(domains.num_domains());
  // The running byte total: the base's, minus each replaced mediation,
  // plus each new one.
  out->mediation_bytes = base != nullptr ? base->mediation_bytes_ : 0;
  const DomainMediation empty;
  for (std::uint32_t r = 0; r < domains.num_domains(); ++r) {
    const bool in_base = base != nullptr && r < base->mediations_.size();
    if (in_base && !affected[r]) {
      out->mediations.push_back(base->mediations_[r]);
      continue;
    }
    if (in_base) out->mediation_bytes -= base->mediations_[r]->MemoryBytes();
    const auto& members = domains.SchemasOf(r);
    if (members.empty()) {
      // Empty domain: empty mediation.
      out->mediations.push_back(std::make_shared<const DomainMediation>());
    } else {
      // A touched domain extends its old mediation by the arrival.
      PAYGO_ASSIGN_OR_RETURN(
          DomainMediation med,
          Mediator::Extend(in_base ? *base->mediations_[r] : empty, corpus,
                           *tokenizer_, members, options_.mediator));
      out->mediations.push_back(
          std::make_shared<const DomainMediation>(std::move(med)));
    }
    out->mediation_bytes += out->mediations.back()->MemoryBytes();
  }
  return Status::OK();
}

void IntegrationSystem::Adopt(Derived derived) {
  if (options_.build_mediation) {
    mediations_ = std::move(derived.mediations);
    mediation_bytes_ = derived.mediation_bytes;
  }
  if (options_.build_classifier) {
    classifier_ = std::move(derived.classifier);
    if (query_featurizer_ == nullptr) {
      query_featurizer_ =
          std::make_shared<const QueryFeaturizer>(*tokenizer_, *vectorizer_);
    }
  }
}

const HacResult& IntegrationSystem::clustering() const {
  if (clustering_ != nullptr) return *clustering_;
  ModelClustering& lazy = *model_clustering_;
  std::call_once(lazy.once, [&] {
    lazy.result.clusters = domains_->clusters().ToVector();
  });
  return lazy.result;
}

std::size_t IntegrationSystem::substrate_bytes() const {
  return substrate_.postings->MemoryBytes() +
         (substrate_.graph != nullptr ? substrate_.graph->MemoryBytes() : 0);
}

void IntegrationSystem::PublishMemory() const {
  StatsRegistry& reg = StatsRegistry::Global();
  static Gauge* features_bytes = reg.GetGauge("paygo.features.bytes");
  static Gauge* domains_bytes = reg.GetGauge("paygo.domains.bytes");
  static Gauge* mediations_bytes = reg.GetGauge("paygo.mediations.bytes");
  static Gauge* substrate = reg.GetGauge("paygo.substrate.bytes");
  features_bytes->Set(static_cast<std::int64_t>(features_->MemoryBytes()));
  domains_bytes->Set(static_cast<std::int64_t>(domains_->MemoryBytes()));
  mediations_bytes->Set(static_cast<std::int64_t>(mediation_bytes_));
  substrate->Set(static_cast<std::int64_t>(substrate_bytes()));
}

Result<IncrementalAddResult> IntegrationSystem::AddSchema(
    Schema schema, std::vector<std::string> labels) {
  PAYGO_TRACE_SPAN("system.add_schema");
  IncrementalAddResult result;
  // Every new component is built into a local and adopted only once all
  // of them exist, so a failure leaves this system as it was. Readers of
  // a snapshot that shares the old components never see the swaps.
  std::vector<JaccardEntry> row;
  std::shared_ptr<const DomainModel> domains;
  std::shared_ptr<const FeatureRows> features;
  {
    PAYGO_TRACE_SPAN("system.add_schema.assign");
    PAYGO_ASSIGN_OR_RETURN(ArrivalVector arrival,
                           FeaturizeArrival(*tokenizer_, *vectorizer_, schema));
    // The newcomer's exact s_sim row, read once from the posting lists of
    // its own features: Algorithm 3 here and, in sparse_build mode, the
    // graph below both consume it.
    row = substrate_.postings->JaccardRow(arrival.features);
    domains = std::make_shared<const DomainModel>(
        AssignArrival(*domains_, row, options_.assignment, &result));
    result.unseen_term_fraction = arrival.unseen_term_fraction;
    // Appends in place when this snapshot ends where its block does.
    auto grown = std::make_shared<FeatureRows>(*features_);
    grown->push_back(std::move(arrival.features));
    features = std::move(grown);
  }
  auto corpus = std::make_shared<SchemaCorpus>(*corpus_);
  corpus->Add(std::move(schema), std::move(labels));
  Substrate substrate;
  {
    PAYGO_TRACE_SPAN("system.add_schema.similarity");
    // One appended schema: index it, and in sparse_build mode splice the
    // new id onto the graph's touched rows from the sparse row — no
    // Jaccard is recomputed.
    auto postings = std::make_shared<FeaturePostings>(*substrate_.postings);
    postings->Append(features->back());
    substrate.postings = std::move(postings);
    if (options_.sparse_build) {
      substrate.graph = std::make_shared<const NeighborGraph>(
          *substrate_.graph, row, !features->back().None());
    }
  }
  // The schema joined result.memberships' domains (or opened a new one);
  // every other domain's member set is untouched.
  std::vector<std::uint32_t> affected;
  affected.reserve(result.memberships.size());
  for (const auto& [domain, prob] : result.memberships) {
    affected.push_back(domain);
  }
  PAYGO_ASSIGN_OR_RETURN(
      Derived derived,
      DeriveState(*corpus, *features, *domains, this, affected));

  sources_.resize(corpus->size());
  corpus_ = std::move(corpus);
  features_ = std::move(features);
  substrate_ = std::move(substrate);
  domains_ = std::move(domains);
  clustering_ = nullptr;  // the HAC result no longer covers the corpus
  model_clustering_ = std::make_shared<ModelClustering>();
  Adopt(std::move(derived));
  PublishMemory();
  return result;
}

Status IntegrationSystem::RebuildFromScratch() {
  PAYGO_ASSIGN_OR_RETURN(std::unique_ptr<IntegrationSystem> fresh,
                         Build(*corpus_, options_));
  // Carry the attached data sources over, then adopt the fresh state.
  fresh->sources_ = std::move(sources_);
  *this = std::move(*fresh);
  return Status::OK();
}

Status IntegrationSystem::ApplyFeedback(const FeedbackStore& store) {
  if (store.has_explicit_feedback()) {
    PAYGO_TRACE_SPAN("system.apply_feedback");
    PAYGO_RETURN_NOT_OK(Recluster(&store));
  }
  if (store.has_implicit_feedback() && classifier_ != nullptr) {
    PAYGO_ASSIGN_OR_RETURN(NaiveBayesClassifier adjusted,
                           AdjustClassifierWithClicks(*classifier_, store));
    classifier_ =
        std::make_shared<const NaiveBayesClassifier>(std::move(adjusted));
  }
  return Status::OK();
}

Result<std::vector<DomainScore>> IntegrationSystem::ClassifyKeywordQuery(
    std::string_view keyword_query) const {
  PAYGO_TRACE_SPAN("system.classify_query");
  if (classifier_ == nullptr) {
    return Status::FailedPrecondition(
        "system was built without a classifier");
  }
  return classifier_->Classify(query_featurizer_->Featurize(keyword_query));
}

Result<std::vector<std::vector<DomainScore>>>
IntegrationSystem::ClassifyKeywordQueryBatch(
    std::span<const std::string> keyword_queries) const {
  PAYGO_TRACE_SPAN("system.classify_batch");
  if (classifier_ == nullptr) {
    return Status::FailedPrecondition(
        "system was built without a classifier");
  }
  std::vector<DynamicBitset> features;
  features.reserve(keyword_queries.size());
  for (const std::string& q : keyword_queries) {
    features.push_back(query_featurizer_->Featurize(q));
  }
  return classifier_->ClassifyBatch(features);
}

Result<std::vector<DomainSuggestion>> IntegrationSystem::SuggestDomains(
    std::string_view keyword_query, std::size_t k) const {
  PAYGO_ASSIGN_OR_RETURN(std::vector<DomainScore> ranking,
                         ClassifyKeywordQuery(keyword_query));
  std::vector<DomainSuggestion> out;
  for (const DomainScore& s : ranking) {
    if (out.size() >= k) break;
    DomainSuggestion sug;
    sug.domain = s.domain;
    sug.log_posterior = s.log_posterior;
    if (!mediations_.empty()) {
      for (const MediatedAttribute& a :
           mediations_[s.domain]->mediated.attributes) {
        sug.mediated_attributes.push_back(a.name);
      }
    }
    out.push_back(std::move(sug));
  }
  return out;
}

Result<IntegrationSystem::KeywordSearchAnswer>
IntegrationSystem::AnswerKeywordQuery(
    std::string_view keyword_query,
    const KeywordSearchOptions& options) const {
  PAYGO_TRACE_SPAN("system.keyword_search");
  if (mediations_.empty()) {
    return Status::FailedPrecondition("system was built without mediation");
  }
  KeywordSearchAnswer answer;
  PAYGO_ASSIGN_OR_RETURN(
      answer.consulted,
      SuggestDomains(keyword_query, options.domains_to_consult));
  if (answer.consulted.empty()) return answer;

  // Softmax-normalize the consulted domains' log posteriors so tuple
  // scores from different domains are comparable.
  double max_lp = answer.consulted[0].log_posterior;
  for (const DomainSuggestion& d : answer.consulted) {
    max_lp = std::max(max_lp, d.log_posterior);
  }
  std::vector<double> posteriors;
  double norm = 0.0;
  for (const DomainSuggestion& d : answer.consulted) {
    const double p = std::exp(d.log_posterior - max_lp);
    posteriors.push_back(p);
    norm += p;
  }
  for (double& p : posteriors) p /= norm;

  const std::vector<std::string> keywords =
      query_featurizer_->ExtractTerms(keyword_query);
  std::vector<const DataSource*> by_schema(corpus_->size(), nullptr);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    by_schema[i] = sources_[i].get();
  }

  std::vector<std::vector<KeywordHit>> per_domain;
  for (std::size_t k = 0; k < answer.consulted.size(); ++k) {
    PAYGO_ASSIGN_OR_RETURN(
        std::vector<KeywordHit> hits,
        SearchDomainTuples(answer.consulted[k].domain, posteriors[k],
                           *mediations_[answer.consulted[k].domain],
                           by_schema, keywords, options));
    per_domain.push_back(std::move(hits));
  }
  answer.hits = MergeKeywordHits(std::move(per_domain), options.max_hits);
  return answer;
}

Status IntegrationSystem::AttachTuples(std::uint32_t schema_id,
                                       std::vector<Tuple> tuples) {
  if (schema_id >= corpus_->size()) {
    return Status::OutOfRange("schema id out of range");
  }
  // Copy-on-write: the store may be shared with published snapshots, so
  // tuples are appended to a private copy that replaces the pointer.
  auto src = sources_[schema_id] == nullptr
                 ? std::make_shared<DataSource>(schema_id,
                                                corpus_->schema(schema_id))
                 : std::make_shared<DataSource>(*sources_[schema_id]);
  for (Tuple& t : tuples) {
    PAYGO_RETURN_NOT_OK(src->AddTuple(std::move(t)));
  }
  sources_[schema_id] = std::move(src);
  return Status::OK();
}

Result<std::vector<RankedTuple>> IntegrationSystem::AnswerStructuredQuery(
    std::uint32_t domain, const StructuredQuery& query) const {
  PAYGO_TRACE_SPAN("system.structured_query");
  if (mediations_.empty()) {
    return Status::FailedPrecondition("system was built without mediation");
  }
  if (domain >= mediations_.size()) {
    return Status::OutOfRange("domain id out of range");
  }
  std::vector<const DataSource*> by_schema(corpus_->size(), nullptr);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    by_schema[i] = sources_[i].get();
  }
  QueryEngine engine(*mediations_[domain], by_schema);
  return engine.Answer(query);
}

std::string IntegrationSystem::DescribeDomain(std::uint32_t domain,
                                              std::size_t max_members) const {
  std::ostringstream os;
  const auto& members = domains_->SchemasOf(domain);
  os << "Domain " << domain << " (" << members.size() << " schemas";
  if (domains_->IsSingletonDomain(domain)) os << ", unclustered";
  os << ")\n";
  if (!mediations_.empty()) {
    os << "  mediated schema:";
    std::size_t shown = 0;
    for (const MediatedAttribute& a : mediations_[domain]->mediated.attributes) {
      if (shown++ >= 10) {
        os << " ...";
        break;
      }
      os << " [" << a.name << "]";
    }
    os << "\n";
  }
  std::size_t shown = 0;
  for (const auto& [schema, prob] : members) {
    if (shown++ >= max_members) {
      os << "  ... (" << members.size() - max_members << " more)\n";
      break;
    }
    os << "  " << corpus_->schema(schema).source_name << " (p=" << prob
       << "): ";
    const auto& attrs = corpus_->schema(schema).attributes;
    for (std::size_t a = 0; a < attrs.size() && a < 6; ++a) {
      os << (a ? "; " : "") << attrs[a];
    }
    if (attrs.size() > 6) os << "; ...";
    os << "\n";
  }
  return os.str();
}

}  // namespace paygo
