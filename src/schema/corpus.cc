#include "schema/corpus.h"

#include <algorithm>
#include <map>
#include <set>

namespace paygo {

std::size_t SchemaCorpus::Add(Schema schema, std::vector<std::string> labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  rows_.push_back(std::make_shared<const Row>(
      Row{std::move(schema), std::move(labels)}));
  return rows_.size() - 1;
}

std::vector<std::string> SchemaCorpus::AllLabels() const {
  std::set<std::string> all;
  for (const auto& row : rows_) {
    all.insert(row->labels.begin(), row->labels.end());
  }
  return std::vector<std::string>(all.begin(), all.end());
}

CorpusStats SchemaCorpus::ComputeStats(const Tokenizer& tokenizer) const {
  CorpusStats stats;
  stats.num_schemas = rows_.size();
  if (rows_.empty()) return stats;

  std::size_t total_terms = 0;
  for (const auto& row : rows_) {
    const std::size_t n = tokenizer.TokenizeAll(row->schema.attributes).size();
    stats.max_terms_per_schema = std::max(stats.max_terms_per_schema, n);
    total_terms += n;
  }
  stats.avg_terms_per_schema =
      static_cast<double>(total_terms) / static_cast<double>(rows_.size());

  std::map<std::string, std::size_t> per_label;
  std::size_t total_labels = 0;
  for (const auto& row : rows_) {
    const std::vector<std::string>& ls = row->labels;
    stats.max_labels_per_schema = std::max(stats.max_labels_per_schema,
                                           ls.size());
    total_labels += ls.size();
    for (const std::string& l : ls) ++per_label[l];
  }
  stats.num_labels = per_label.size();
  stats.avg_labels_per_schema =
      static_cast<double>(total_labels) / static_cast<double>(rows_.size());
  if (!per_label.empty()) {
    std::size_t total_schemas_in_labels = 0;
    for (const auto& [label, count] : per_label) {
      stats.max_schemas_per_label = std::max(stats.max_schemas_per_label,
                                             count);
      total_schemas_in_labels += count;
    }
    stats.avg_schemas_per_label =
        static_cast<double>(total_schemas_in_labels) /
        static_cast<double>(per_label.size());
  }
  return stats;
}

SchemaCorpus SchemaCorpus::Union(const SchemaCorpus& a, const SchemaCorpus& b,
                                 std::string name) {
  SchemaCorpus out(std::move(name));
  out.rows_ = a.rows_;
  out.rows_.insert(out.rows_.end(), b.rows_.begin(), b.rows_.end());
  return out;
}

}  // namespace paygo
