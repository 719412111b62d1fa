#include "mediate/term_table.h"

namespace paygo {

TermTable::Name TermTable::Intern(const std::vector<std::string>& terms) {
  Name name;
  name.begin = static_cast<std::uint32_t>(name_ids_.size());
  for (const std::string& t : terms) {
    const auto [it, inserted] =
        ids_.try_emplace(t, static_cast<std::uint32_t>(terms_.size()));
    if (inserted) {
      terms_.push_back(&it->first);
      memo_.emplace_back();
    }
    name_ids_.push_back(it->second);
  }
  name.end = static_cast<std::uint32_t>(name_ids_.size());
  return name;
}

}  // namespace paygo
