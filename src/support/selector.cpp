#include "support/selector.h"

namespace locald {

Selector parse_selector(const std::string& text, const SelectorKind& kind) {
  Selector selector;
  const std::size_t colon = text.find(':');
  selector.name = text.substr(0, colon);
  LOCALD_CHECK(!selector.name.empty(), cat(kind.noun, " selector needs a "
                                           "name, e.g. ", kind.examples));
  if (colon == std::string::npos) {
    return selector;
  }
  const std::string rest = text.substr(colon + 1);
  LOCALD_CHECK(!rest.empty(), cat(kind.noun, " selector \"", text,
                                  "\" has a ':' but no k=v list"));
  std::size_t start = 0;
  while (start <= rest.size()) {
    std::size_t comma = rest.find(',', start);
    if (comma == std::string::npos) {
      comma = rest.size();
    }
    const std::string item = rest.substr(start, comma - start);
    const std::size_t eq = item.find('=');
    LOCALD_CHECK(eq != std::string::npos && eq > 0,
                 cat(kind.noun, " parameter \"", item,
                     "\" is not of the form k=v"));
    const std::string key = item.substr(0, eq);
    const auto value = parse_int(item.substr(eq + 1));
    LOCALD_CHECK(value.has_value(), cat(kind.noun, " parameter \"", item,
                                        "\" needs an integer value"));
    for (const auto& [existing, unused] : selector.params) {
      LOCALD_CHECK(existing != key,
                   cat(kind.noun, " parameter \"", key, "\" given twice"));
    }
    selector.params.emplace_back(key, *value);
    start = comma + 1;
  }
  return selector;
}

int param_index(const std::vector<ParamSpec>& params, const std::string& name) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<std::int64_t> resolve_params(const SelectorKind& kind,
                                         const std::string& entry,
                                         const std::vector<ParamSpec>& params,
                                         const Selector& selector,
                                         const SizeMapping& apply_size) {
  std::vector<std::int64_t> values;
  values.reserve(params.size());
  for (const ParamSpec& p : params) {
    values.push_back(p.default_value);
  }
  std::vector<bool> pinned(values.size(), false);
  for (const auto& [key, value] : selector.params) {
    const int index = param_index(params, key);
    LOCALD_CHECK(index >= 0, cat(kind.noun, " \"", entry,
                                 "\" has no parameter \"", key, "\""));
    values[static_cast<std::size_t>(index)] = value;
    pinned[static_cast<std::size_t>(index)] = true;
  }
  if (apply_size) {
    // The mapping sees the explicit assignments and which ones are pinned
    // (a mapping that derives one parameter from a sibling — grid height
    // from a pinned width, balanced-tree depth from arity — must use the
    // values that will actually build); whatever it writes to a pinned
    // slot is discarded, so explicit parameters always win.
    std::vector<std::int64_t> sized = values;
    apply_size(sized, pinned);
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!pinned[i]) {
        values[i] = sized[i];
      }
    }
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const ParamSpec& p = params[i];
    LOCALD_CHECK(values[i] >= p.min_value && values[i] <= p.max_value,
                 cat(kind.noun, " \"", entry, "\" parameter ", p.name, " = ",
                     values[i], " is outside [", p.min_value, ", ",
                     p.max_value, "]"));
  }
  return values;
}

std::string encode_selector(const std::string& name,
                            const std::vector<ParamSpec>& params,
                            const std::vector<std::int64_t>& values) {
  std::string out = name;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += params[i].name;
    out += '=';
    out += std::to_string(values[i]);
  }
  return out;
}

void write_params(JsonWriter& w, const std::vector<ParamSpec>& params) {
  w.key("params");
  w.begin_array();
  for (const ParamSpec& p : params) {
    w.begin_object();
    w.key("name");
    w.value(p.name);
    w.key("default");
    w.value(p.default_value);
    w.key("min");
    w.value(p.min_value);
    w.key("max");
    w.value(p.max_value);
    w.key("help");
    w.value(p.help);
    w.end_object();
  }
  w.end_array();
}

std::string param_defaults(const std::vector<ParamSpec>& params) {
  std::string out;
  for (const ParamSpec& p : params) {
    if (!out.empty()) out += ',';
    out += cat(p.name, "=", p.default_value);
  }
  return out;
}

}  // namespace locald
