#include "schema/multi_table.h"

#include <algorithm>

#include "mediate/mediator.h"
#include "util/union_find.h"

namespace paygo {
namespace {

bool TablesShareAttribute(const MultiTableSource::Table& a,
                          const MultiTableSource::Table& b,
                          const Tokenizer& tokenizer,
                          const TermSimilarity& sim, double threshold) {
  for (const std::string& attr_a : a.attributes) {
    const auto terms_a = tokenizer.Tokenize(attr_a);
    for (const std::string& attr_b : b.attributes) {
      const auto terms_b = tokenizer.Tokenize(attr_b);
      if (AttributeNameSimilarity(terms_a, terms_b, sim, threshold) >=
          threshold) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<Schema> DecomposeMultiTableSource(
    const MultiTableSource& source, const Tokenizer& tokenizer,
    const MultiTableOptions& options) {
  std::vector<const MultiTableSource::Table*> tables;
  for (const auto& t : source.tables) {
    if (!t.attributes.empty()) tables.push_back(&t);
  }
  std::vector<Schema> out;
  if (tables.empty()) return out;

  switch (options.decomposition) {
    case MultiTableDecomposition::kPerTable: {
      for (const auto* t : tables) {
        out.emplace_back(source.source_name + "." + t->table_name,
                         t->attributes);
      }
      return out;
    }
    case MultiTableDecomposition::kJoined: {
      const TermSimilarity sim(options.similarity_kind);
      UnionFind uf(tables.size());
      for (std::size_t i = 0; i < tables.size(); ++i) {
        for (std::size_t j = i + 1; j < tables.size(); ++j) {
          if (uf.Find(i) == uf.Find(j)) continue;
          if (TablesShareAttribute(*tables[i], *tables[j], tokenizer, sim,
                                   options.join_attr_sim)) {
            uf.Union(i, j);
          }
        }
      }
      // Emit one wide schema per component, deduplicating attributes by
      // canonical name; component named after its first table.
      std::vector<std::vector<std::size_t>> groups(tables.size());
      for (std::size_t i = 0; i < tables.size(); ++i) {
        groups[uf.Find(i)].push_back(i);
      }
      for (const auto& group : groups) {
        if (group.empty()) continue;
        Schema schema;
        schema.source_name =
            source.source_name + "." + tables[group[0]]->table_name +
            (group.size() > 1 ? "+" : "");
        std::vector<std::string> seen;
        for (std::size_t ti : group) {
          for (const std::string& attr : tables[ti]->attributes) {
            const std::string canon = CanonicalAttributeName(attr);
            if (std::find(seen.begin(), seen.end(), canon) != seen.end()) {
              continue;
            }
            seen.push_back(canon);
            schema.attributes.push_back(attr);
          }
        }
        out.push_back(std::move(schema));
      }
      return out;
    }
  }
  return out;
}

SchemaCorpus CorpusFromMultiTableSources(
    const std::vector<MultiTableSource>& sources,
    const std::vector<std::vector<std::string>>& labels_per_source,
    const Tokenizer& tokenizer, const MultiTableOptions& options) {
  SchemaCorpus corpus;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const std::vector<std::string> labels =
        s < labels_per_source.size() ? labels_per_source[s]
                                     : std::vector<std::string>{};
    for (Schema& schema :
         DecomposeMultiTableSource(sources[s], tokenizer, options)) {
      corpus.Add(std::move(schema), labels);
    }
  }
  return corpus;
}

}  // namespace paygo
