#include "schema/feature_postings.h"

#include <algorithm>

#include "obs/stats.h"

namespace paygo {

FeaturePostings::FeaturePostings(std::span<const DynamicBitset> features) {
  std::vector<IdList> lists(features.empty() ? 0 : features.front().size());
  popcounts_.reserve(features.size());
  std::vector<std::size_t> bits;
  for (std::size_t i = 0; i < features.size(); ++i) {
    bits.clear();
    features[i].AppendSetBits(&bits);
    for (std::size_t b : bits) {
      if (b >= lists.size()) lists.resize(b + 1);
      lists[b].push_back(static_cast<std::uint32_t>(i));
    }
    popcounts_.push_back(static_cast<std::uint32_t>(bits.size()));
  }
  lists_.resize(lists.size());
  for (std::size_t f = 0; f < lists.size(); ++f) {
    if (lists[f].empty()) continue;
    lists_[f] = std::make_shared<const IdList>(std::move(lists[f]));
  }
}

std::vector<JaccardEntry> FeaturePostings::JaccardRow(
    const DynamicBitset& query) const {
  static Counter* visited =
      StatsRegistry::Global().GetCounter("paygo.arrival.postings_visited");
  std::vector<std::size_t> bits;
  query.AppendSetBits(&bits);
  std::vector<std::uint32_t> counts(num_schemas(), 0);
  std::vector<std::uint32_t> touched;
  std::uint64_t read = 0;
  for (std::size_t f : bits) {
    const std::span<const std::uint32_t> list = List(f);
    read += list.size();
    for (std::uint32_t id : list) {
      if (counts[id]++ == 0) touched.push_back(id);
    }
  }
  visited->Add(read);
  std::sort(touched.begin(), touched.end());
  std::vector<JaccardEntry> row;
  row.reserve(touched.size());
  for (std::uint32_t id : touched) {
    const std::uint64_t inter = counts[id];
    const std::uint64_t uni = bits.size() + popcounts_[id] - inter;
    row.push_back(
        {id, static_cast<double>(inter) / static_cast<double>(uni)});
  }
  return row;
}

void FeaturePostings::Append(const DynamicBitset& features) {
  const auto id = static_cast<std::uint32_t>(num_schemas());
  std::vector<std::size_t> bits;
  features.AppendSetBits(&bits);
  if (features.size() > lists_.size()) lists_.resize(features.size());
  for (std::size_t b : bits) {
    auto list = lists_[b] == nullptr ? std::make_shared<IdList>()
                                     : std::make_shared<IdList>(*lists_[b]);
    list->push_back(id);
    lists_[b] = std::move(list);
  }
  popcounts_.push_back(static_cast<std::uint32_t>(bits.size()));
}

}  // namespace paygo
