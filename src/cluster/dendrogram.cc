#include "cluster/dendrogram.h"

#include <algorithm>

#include "util/string_util.h"

namespace paygo {

Result<Dendrogram> Dendrogram::Build(std::size_t num_schemas,
                                     const HacResult& result) {
  Dendrogram d;
  d.nodes_.reserve(2 * num_schemas);
  // Leaves first; slot i currently roots node i.
  std::vector<int> root_of_slot(num_schemas);
  for (std::size_t i = 0; i < num_schemas; ++i) {
    DendrogramNode leaf;
    leaf.schema_id = static_cast<int>(i);
    d.nodes_.push_back(leaf);
    root_of_slot[i] = static_cast<int>(i);
  }
  // Replay merges: HacMerge records the slots whose current roots joined.
  std::vector<int> parent(num_schemas, -1);
  for (const HacMerge& m : result.merges) {
    if (m.slot_a >= num_schemas || m.slot_b >= num_schemas) {
      return Status::InvalidArgument("merge references an unknown slot");
    }
    const int left = root_of_slot[m.slot_a];
    const int right = root_of_slot[m.slot_b];
    if (left == right) {
      return Status::InvalidArgument("merge joins a slot with itself");
    }
    DendrogramNode node;
    node.left = left;
    node.right = right;
    node.similarity = m.similarity;
    node.size = d.nodes_[static_cast<std::size_t>(left)].size +
                d.nodes_[static_cast<std::size_t>(right)].size;
    const int id = static_cast<int>(d.nodes_.size());
    d.nodes_.push_back(node);
    parent.push_back(-1);
    parent[static_cast<std::size_t>(left)] = id;
    parent[static_cast<std::size_t>(right)] = id;
    root_of_slot[m.slot_a] = id;
    root_of_slot[m.slot_b] = id;  // slot b is dead, but keep it consistent
  }
  // Roots: exactly the nodes that never became a child.
  std::vector<int> roots;
  for (std::size_t i = 0; i < d.nodes_.size(); ++i) {
    if (parent[i] < 0) roots.push_back(static_cast<int>(i));
  }
  std::vector<std::pair<std::uint32_t, int>> ordered;
  for (int r : roots) {
    std::vector<std::uint32_t> leaves;
    d.CollectLeaves(r, &leaves);
    ordered.emplace_back(*std::min_element(leaves.begin(), leaves.end()), r);
  }
  std::sort(ordered.begin(), ordered.end());
  for (const auto& [first_leaf, r] : ordered) d.roots_.push_back(r);
  return d;
}

void Dendrogram::CollectLeaves(int node,
                               std::vector<std::uint32_t>* out) const {
  const DendrogramNode& n = nodes_[static_cast<std::size_t>(node)];
  if (n.schema_id >= 0) {
    out->push_back(static_cast<std::uint32_t>(n.schema_id));
    return;
  }
  CollectLeaves(n.left, out);
  CollectLeaves(n.right, out);
}

std::vector<std::vector<std::uint32_t>> Dendrogram::CutAt(double tau) const {
  std::vector<std::vector<std::uint32_t>> clusters;
  // DFS from each root; descend through merges below tau, emit subtrees
  // whose merges are all >= tau.
  std::vector<int> stack(roots_.rbegin(), roots_.rend());
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    const DendrogramNode& n = nodes_[static_cast<std::size_t>(id)];
    if (n.schema_id >= 0 || n.similarity >= tau) {
      std::vector<std::uint32_t> leaves;
      CollectLeaves(id, &leaves);
      std::sort(leaves.begin(), leaves.end());
      clusters.push_back(std::move(leaves));
    } else {
      stack.push_back(n.right);
      stack.push_back(n.left);
    }
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return clusters;
}

namespace {

std::string LeafLabel(const SchemaCorpus* corpus, int schema_id) {
  if (corpus != nullptr &&
      static_cast<std::size_t>(schema_id) < corpus->size()) {
    // Newick-safe: replace structural characters.
    std::string label =
        corpus->schema(static_cast<std::size_t>(schema_id)).source_name;
    for (char& c : label) {
      if (c == '(' || c == ')' || c == ',' || c == ':' || c == ';' ||
          c == ' ') {
        c = '_';
      }
    }
    return label;
  }
  std::string label = "s";
  label += std::to_string(schema_id);
  return label;
}

}  // namespace

void Dendrogram::AppendNewick(int node, const SchemaCorpus* corpus,
                              std::string* out) const {
  const DendrogramNode& n = nodes_[static_cast<std::size_t>(node)];
  if (n.schema_id >= 0) {
    out->append(LeafLabel(corpus, n.schema_id));
    return;
  }
  out->push_back('(');
  AppendNewick(n.left, corpus, out);
  out->push_back(',');
  AppendNewick(n.right, corpus, out);
  out->append("):");
  out->append(FormatDouble(n.similarity, 4));
}

std::string Dendrogram::ToNewick(const SchemaCorpus* corpus) const {
  std::string out;
  for (int root : roots_) {
    AppendNewick(root, corpus, &out);
    out.append(";\n");
  }
  return out;
}

void Dendrogram::AppendAscii(int node, const SchemaCorpus* corpus,
                             std::size_t depth, std::size_t max_depth,
                             std::string* out) const {
  const DendrogramNode& n = nodes_[static_cast<std::size_t>(node)];
  out->append(2 * depth, ' ');
  if (n.schema_id >= 0) {
    out->append(LeafLabel(corpus, n.schema_id));
    out->push_back('\n');
    return;
  }
  out->append("* sim=" + FormatDouble(n.similarity, 3) + " (" +
              std::to_string(n.size) + " schemas)\n");
  if (depth + 1 > max_depth) {
    out->append(2 * (depth + 1), ' ');
    out->append("...\n");
    return;
  }
  AppendAscii(n.left, corpus, depth + 1, max_depth, out);
  AppendAscii(n.right, corpus, depth + 1, max_depth, out);
}

std::string Dendrogram::ToAscii(const SchemaCorpus* corpus,
                                std::size_t max_depth) const {
  std::string out;
  for (int root : roots_) {
    AppendAscii(root, corpus, 0, max_depth, &out);
  }
  return out;
}

}  // namespace paygo
