#include "gen/family.h"

namespace locald::gen {

Invariants FamilyInstanceSpec::invariants() const {
  return entry_->declared_invariants(values_);
}

graph::CsrGraph FamilyInstanceSpec::build(std::uint64_t seed) const {
  return entry_->build(values_, seed);
}

FamilyInstanceSpec resolve_family_text(const std::string& text,
                                       std::int64_t size) {
  const Selector selector = parse_selector(text, kFamilySelector);
  const Family& family =
      find_entry(family_registry(), kFamilySelector, selector.name);
  SizeMapping apply_size;
  if (size > 0) {
    apply_size = [&](std::vector<std::int64_t>& values,
                     const std::vector<bool>& pinned) {
      family.apply_size(size, values, pinned);
    };
  }
  return FamilyInstanceSpec(
      &family, resolve_params(kFamilySelector, family.name, family.params,
                              selector, apply_size));
}

}  // namespace locald::gen
