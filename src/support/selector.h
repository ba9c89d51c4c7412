// Selectors: the `name:k=v,...` grammar that picks one entry of a
// parameterized registry. Graph families (gen/family.h, `--family`) and
// fault profiles (local/fault_profile.h, `--faults`) are both selected
// through this one implementation, on the CLI and in the JSON APIs:
//
//   <name>                      e.g. "cycle", "drop"
//   <name>:<k>=<v>,<k>=<v>...   e.g. "torus:width=8,height=6"
//
// A registry entry declares its integer parameters as a `ParamSpec` schema
// (names, defaults, valid ranges). `parse_selector` reads the text,
// `find_entry` looks the name up, and `resolve_params` fills every schema
// slot: defaults, then the explicit assignments (which pin their slots),
// then an optional size mapping over the unpinned slots, then the range
// check. `Resolved<Entry>` is the resulting (entry, values) pair; its
// `canonical()` re-encodes it with every parameter spelled out in schema
// order — the encoding bench documents and cache-style keys use.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/format.h"

namespace locald {

// One named integer parameter of a registry entry.
struct ParamSpec {
  std::string name;
  std::int64_t default_value = 0;
  std::int64_t min_value = 0;
  std::int64_t max_value = 0;
  std::string help;
};

// How a registry names itself in error messages.
struct SelectorKind {
  const char* noun;       // e.g. "graph family"
  const char* examples;   // e.g. "\"cycle\" or \"torus:width=8,height=6\""
  const char* list_flag;  // the `locald list` flag enumerating the registry
};

// A parsed (but not yet validated) selector.
struct Selector {
  std::string name;
  std::vector<std::pair<std::string, std::int64_t>> params;  // as written
};

// Parse the grammar above. Throws Error on malformed text (empty name,
// empty k=v list, missing '=', non-integer value, duplicate key).
Selector parse_selector(const std::string& text, const SelectorKind& kind);

// Index of `name` in `params`; -1 when the schema has no such parameter.
int param_index(const std::vector<ParamSpec>& params, const std::string& name);

// Writes target-size-derived values into the slots `pinned` leaves free.
using SizeMapping = std::function<void(std::vector<std::int64_t>& values,
                                       const std::vector<bool>& pinned)>;

// Every value of `entry`'s schema `params` for `selector`: defaults, then
// explicit assignments, then `apply_size` (when given; whatever it writes
// to a pinned slot is discarded), then the range check. Throws Error on an
// unknown parameter or an out-of-range value.
std::vector<std::int64_t> resolve_params(const SelectorKind& kind,
                                         const std::string& entry,
                                         const std::vector<ParamSpec>& params,
                                         const Selector& selector,
                                         const SizeMapping& apply_size = {});

// Canonical encoding: "name:k=v,..." with every parameter in schema order.
std::string encode_selector(const std::string& name,
                            const std::vector<ParamSpec>& params,
                            const std::vector<std::int64_t>& values);

// The catalog views of a schema: the `params` member of a JSON catalog
// entry, and the "k=default,..." cell of a `locald list` table.
void write_params(JsonWriter& w, const std::vector<ParamSpec>& params);
std::string param_defaults(const std::vector<ParamSpec>& params);

// The entry named `name` in `registry` (anything with a `name` member).
// Throws Error when there is none.
template <class Entry>
const Entry& find_entry(const std::vector<Entry>& registry,
                        const SelectorKind& kind, const std::string& name) {
  for (const Entry& entry : registry) {
    if (entry.name == name) {
      return entry;
    }
  }
  throw Error(cat("unknown ", kind.noun, " \"", name, "\" (see `locald list ",
                  kind.list_flag, "`)"));
}

// A selector resolved against its registry: every schema parameter of the
// entry (anything with `name` and `params` members) has a value.
template <class Entry>
class Resolved {
 public:
  Resolved(const Entry* entry, std::vector<std::int64_t> values)
      : entry_(entry), values_(std::move(values)) {
    LOCALD_ASSERT(entry_ != nullptr, "a resolved selector needs an entry");
    LOCALD_ASSERT(values_.size() == entry_->params.size(),
                  "one value required per schema parameter");
  }

  const Entry& entry() const { return *entry_; }
  const std::vector<std::int64_t>& values() const { return values_; }

  std::int64_t value(const std::string& param) const {
    const int index = param_index(entry_->params, param);
    LOCALD_ASSERT(index >= 0,
                  cat(entry_->name, " has no parameter ", param));
    return values_[static_cast<std::size_t>(index)];
  }

  std::string canonical() const {
    return encode_selector(entry_->name, entry_->params, values_);
  }

 protected:
  const Entry* entry_;
  std::vector<std::int64_t> values_;
};

}  // namespace locald
