// The selector grammar and resolver (support/selector.h), on a toy schema
// and across both registries that use it — graph families and fault
// profiles. The registry cases are one table run against each registry, so
// the two selector surfaces cannot drift apart.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "gen/family.h"
#include "local/fault_profile.h"
#include "support/json.h"
#include "support/selector.h"

namespace locald {
namespace {

constexpr SelectorKind kToy{"toy", "\"x\"", "--toys"};

const std::vector<ParamSpec> kToySchema = {{"a", 1, 0, 10, "first"},
                                           {"b", 2, 0, 10, "second"}};

TEST(Selector, ResolverAppliesDefaultsThenExplicitThenSizeThenRange) {
  EXPECT_EQ(resolve_params(kToy, "x", kToySchema, parse_selector("x", kToy)),
            (std::vector<std::int64_t>{1, 2}));
  // The size mapping sees the pinned mask, and loses to explicit values.
  const std::vector<std::int64_t> sized = resolve_params(
      kToy, "x", kToySchema, parse_selector("x:b=7", kToy),
      [](std::vector<std::int64_t>& v, const std::vector<bool>& pinned) {
        EXPECT_EQ(pinned, (std::vector<bool>{false, true}));
        EXPECT_EQ(v[1], 7);
        v = {5, 9};
      });
  EXPECT_EQ(sized, (std::vector<std::int64_t>{5, 7}));
  EXPECT_EQ(encode_selector("x", kToySchema, sized), "x:a=5,b=7");
  // Whatever the mapping writes is range-checked like an explicit value.
  EXPECT_THROW(resolve_params(kToy, "x", kToySchema, parse_selector("x", kToy),
                              [](std::vector<std::int64_t>& v,
                                 const std::vector<bool>&) { v[0] = 11; }),
               Error);
  EXPECT_EQ(encode_selector("x", {}, {}), "x");
}

TEST(Selector, CatalogViewsSpellTheSchema) {
  EXPECT_EQ(param_defaults(kToySchema), "a=1,b=2");
  EXPECT_EQ(param_defaults({}), "");
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  write_params(w, kToySchema);
  w.end_object();
  const JsonValue doc = parse_json(out.str());
  const std::vector<JsonValue>& params = doc.find("params")->items();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[1].find("name")->as_string(), "b");
  EXPECT_EQ(params[1].find("default")->as_integer(), 2);
  EXPECT_EQ(params[1].find("min")->as_integer(), 0);
  EXPECT_EQ(params[1].find("max")->as_integer(), 10);
  EXPECT_EQ(params[1].find("help")->as_string(), "second");
}

// One registry as the table sees it.
struct Registry {
  const char* noun;
  // Every entry's name and schema, in registry order.
  std::vector<std::pair<std::string, std::vector<ParamSpec>>> entries;
  // Resolve a selector text at size 0 and re-encode it canonically.
  std::function<std::string(const std::string&)> canonical;
  // An entry, one of its parameters, and a value outside that one's range.
  std::string entry;
  std::string param;
  std::string out_of_range;
};

template <class Entry>
std::vector<std::pair<std::string, std::vector<ParamSpec>>> entries_of(
    const std::vector<Entry>& registry) {
  std::vector<std::pair<std::string, std::vector<ParamSpec>>> out;
  for (const Entry& e : registry) {
    out.emplace_back(e.name, e.params);
  }
  return out;
}

std::vector<Registry> registries() {
  return {
      {"graph family", entries_of(gen::family_registry()),
       [](const std::string& text) {
         return gen::resolve_family_text(text).canonical();
       },
       "cycle", "n", "2"},
      {"fault profile", entries_of(local::fault_registry()),
       [](const std::string& text) {
         return local::resolve_faults_text(text).canonical();
       },
       "drop", "per-mille", "2000"},
  };
}

// The message of the Error resolving `text` throws; empty when it resolves.
std::string rejection(const Registry& registry, const std::string& text) {
  try {
    registry.canonical(text);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(Selector, EveryRegistryRejectsTheSameBadTexts) {
  for (const Registry& r : registries()) {
    const std::string& e = r.entry;
    const std::string& p = r.param;
    const std::vector<std::string> bad = {
        // malformed text
        "", ":" + p + "=3", e + ":", e + ":" + p, e + ":" + p + "=abc",
        e + ":" + p + "=1," + p + "=2", e + ":=3",
        // well-formed, but not in the registry or its schema
        "nosuch", e + ":unknown=1", e + ":" + p + "=" + r.out_of_range};
    for (const std::string& text : bad) {
      const std::string why = rejection(r, text);
      EXPECT_NE(why, "") << r.noun << " accepted \"" << text << "\"";
      EXPECT_NE(why.find(r.noun), std::string::npos) << why;
      EXPECT_EQ(why.find(".cpp:"), std::string::npos) << why;
    }
  }
}

TEST(Selector, EveryEntryRoundTripsItsCanonicalEncoding) {
  for (const Registry& r : registries()) {
    ASSERT_FALSE(r.entries.empty()) << r.noun;
    for (const auto& [name, params] : r.entries) {
      // A bare name spells out every default in schema order...
      const std::string canonical = r.canonical(name);
      EXPECT_EQ(canonical,
                params.empty() ? name : name + ":" + param_defaults(params));
      // ...and the canonical encoding re-resolves to itself.
      EXPECT_EQ(r.canonical(canonical), canonical);
    }
  }
}

}  // namespace
}  // namespace locald
