// Node labels ("local inputs" x(v) in the paper).
//
// A label is a short tuple of signed 64-bit fields. Every construction in
// the paper encodes its per-node input this way: Section 2 uses (r, x, y)
// tree coordinates, Section 3 packs a Turing-machine description, grid
// orientation bits and tape-cell contents. Labels compare exactly — the
// canonical-form machinery embeds their bytes verbatim, so two distinct
// labels can never collide in an indistinguishability audit.
#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/check.h"
#include "support/hash.h"

namespace locald::local {

class Label {
 public:
  Label() = default;
  explicit Label(std::vector<std::int64_t> fields)
      : fields_(std::move(fields)) {}
  Label(std::initializer_list<std::int64_t> fields) : fields_(fields) {}

  const std::vector<std::int64_t>& fields() const { return fields_; }
  std::size_t size() const { return fields_.size(); }
  bool empty() const { return fields_.empty(); }

  std::int64_t at(std::size_t i) const {
    LOCALD_CHECK(i < fields_.size(), "label field index out of range");
    return fields_[i];
  }

  bool operator==(const Label&) const = default;
  auto operator<=>(const Label&) const = default;

  // Human-readable and unambiguous: "(1,-2,3)".
  std::string to_string() const {
    std::string s = "(";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(fields_[i]);
    }
    s += ")";
    return s;
  }

  // Byte payload for canonical encodings; the fixed grammar makes distinct
  // field vectors produce distinct payloads.
  std::string payload() const { return to_string(); }

  std::uint64_t hash() const { return hash_i64_vector(fields_); }

 private:
  std::vector<std::int64_t> fields_;
};

struct LabelHasher {
  std::size_t operator()(const Label& l) const {
    return static_cast<std::size_t>(l.hash());
  }
};

}  // namespace locald::local
