#ifndef PAYGO_SCHEMA_CORPUS_H_
#define PAYGO_SCHEMA_CORPUS_H_

/// \file corpus.h
/// \brief A labeled collection of schemas (the experimental unit of Ch. 6).
///
/// Each schema may carry a set of ground-truth domain labels B(S_i)
/// (Section 6.1.2) used only for evaluation — the clustering and
/// classification algorithms never see them.
///
/// Each schema and its labels live in one immutable row behind a
/// shared_ptr. Copying a corpus copies the row handles, not the schema
/// text, so IntegrationSystem::AddSchema's copy-on-write corpus (and the
/// teardown of the snapshot it replaces) is pointer work.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "schema/schema.h"
#include "text/tokenizer.h"

namespace paygo {

/// \brief Table 6.1-style statistics about a corpus.
struct CorpusStats {
  std::size_t num_schemas = 0;
  std::size_t max_terms_per_schema = 0;
  double avg_terms_per_schema = 0.0;
  std::size_t num_labels = 0;
  std::size_t max_labels_per_schema = 0;
  double avg_labels_per_schema = 0.0;
  std::size_t max_schemas_per_label = 0;
  double avg_schemas_per_label = 0.0;
};

/// \brief An ordered collection of schemas with optional evaluation labels.
class SchemaCorpus {
 public:
  SchemaCorpus() = default;
  /// Names the corpus (e.g. "DW", "SS", "DDH") for experiment output.
  explicit SchemaCorpus(std::string name) : name_(std::move(name)) {}

  /// Appends a schema with its (possibly empty) ground-truth label set.
  /// Returns the schema's index.
  std::size_t Add(Schema schema, std::vector<std::string> labels = {});

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const Schema& schema(std::size_t i) const { return rows_[i]->schema; }
  /// Ground-truth labels B(S_i) of schema \p i (evaluation only).
  const std::vector<std::string>& labels(std::size_t i) const {
    return rows_[i]->labels;
  }

  /// All distinct labels across the corpus, sorted.
  std::vector<std::string> AllLabels() const;

  /// Computes Table 6.1-style statistics, tokenizing with \p tokenizer.
  CorpusStats ComputeStats(const Tokenizer& tokenizer) const;

  /// Concatenates two corpora (labels carried over); the result is named
  /// \p name.
  static SchemaCorpus Union(const SchemaCorpus& a, const SchemaCorpus& b,
                            std::string name);

 private:
  struct Row {
    Schema schema;
    std::vector<std::string> labels;  ///< Sorted, distinct.
  };
  std::string name_;
  std::vector<std::shared_ptr<const Row>> rows_;
};

}  // namespace paygo

#endif  // PAYGO_SCHEMA_CORPUS_H_
