// Unit tests for the support module: checked errors, RNG determinism and
// distribution sanity, hashing stability, text formatting, JSON reading
// and writing.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "support/check.h"
#include "support/format.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/rng.h"

namespace locald {
namespace {

TEST(Check, CheckThrowsError) {
  EXPECT_THROW(LOCALD_CHECK(false, "bad input"), Error);
  EXPECT_NO_THROW(LOCALD_CHECK(true, "fine"));
}

TEST(Check, AssertThrowsBugError) {
  EXPECT_THROW(LOCALD_ASSERT(false, "broken invariant"), BugError);
  EXPECT_NO_THROW(LOCALD_ASSERT(true, "fine"));
}

TEST(Check, BugErrorCarriesLocationAndText) {
  try {
    LOCALD_ASSERT(1 == 2, "custom context");
    FAIL() << "expected a throw";
  } catch (const BugError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

// A caller error reaches users verbatim (stderr, JSON error fields), so it
// carries no source location: its text is its message, or the condition
// when the message is empty.
TEST(Check, ErrorEqualsItsMessage) {
  try {
    LOCALD_CHECK(1 == 2, "custom context");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "custom context");
  }
  try {
    LOCALD_CHECK(1 == 2, "");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "1 == 2");
  }
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.next_u64() == b.next_u64());
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.03);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.bernoulli(0.25);
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, GeometricCoinMeanIsTwo) {
  Rng rng(17);
  long long total = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const int t = rng.coin_tosses_until_head();
    ASSERT_GE(t, 1);
    total += t;
  }
  EXPECT_NEAR(static_cast<double>(total) / trials, 2.0, 0.1);
}

TEST(Rng, SampleDistinctProducesDistinctValues) {
  Rng rng(19);
  for (std::size_t k : {0UL, 1UL, 5UL, 50UL, 100UL}) {
    const auto s = rng.sample_distinct(100, k);
    EXPECT_EQ(s.size(), k);
    const std::set<std::uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (auto v : s) {
      EXPECT_LT(v, 100u);
    }
  }
}

TEST(Rng, SampleDistinctRejectsOversample) {
  Rng rng(23);
  EXPECT_THROW(rng.sample_distinct(3, 4), Error);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Hash, Fnv1aStableKnownValue) {
  // Regression anchor: canonical fingerprints must be stable across builds.
  const std::uint64_t h = fnv1a("abc", 3);
  EXPECT_EQ(h, fnv1a("abc", 3));
  EXPECT_NE(h, fnv1a("abd", 3));
}

TEST(Hash, VectorHashingDistinguishesLengthAndOrder) {
  EXPECT_NE(hash_i64_vector({1, 2}), hash_i64_vector({2, 1}));
  EXPECT_NE(hash_i64_vector({1}), hash_i64_vector({1, 0}));
  EXPECT_EQ(hash_i64_vector({5, 6, 7}), hash_i64_vector({5, 6, 7}));
}

TEST(Format, CatConcatenatesMixedTypes) {
  EXPECT_EQ(cat("r=", 3, ", p=", 1.5), "r=3, p=1.5");
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fixed(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(fixed(2.0, 1), "2.0");
}

TEST(Format, TextTableAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Format, TextTableRejectsRaggedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Format, TextTableRendersCsv) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  EXPECT_EQ(t.render_csv(), "name,value\nalpha,1\nb,22222\n");
}

TEST(Format, TextTableCsvQuotesSpecialCharacters) {
  TextTable t({"cell"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  t.add_row({"has\nnewline"});
  EXPECT_EQ(t.render_csv(),
            "cell\n\"has,comma\"\n\"has\"\"quote\"\n\"has\nnewline\"\n");
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_EQ(parse_json("42").as_integer(), 42);
  EXPECT_EQ(parse_json("-7").as_integer(), -7);
  EXPECT_DOUBLE_EQ(parse_json("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse_json("2e3").as_double(), 2000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegerVsDoubleDistinction) {
  EXPECT_TRUE(parse_json("3").is_integer());
  EXPECT_FALSE(parse_json("3.0").is_integer());
  EXPECT_FALSE(parse_json("3e0").is_integer());
  // Integral numbers still read as doubles; non-integral ones refuse
  // as_integer (precision would be silently lost).
  EXPECT_DOUBLE_EQ(parse_json("3").as_double(), 3.0);
  EXPECT_THROW(parse_json("3.5").as_integer(), Error);
}

TEST(Json, ParsesContainersPreservingOrder) {
  const JsonValue v = parse_json(
      R"({"b": [1, 2, 3], "a": {"nested": true}, "c": null})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "b");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "c");
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_EQ(v.find("b")->items().size(), 3u);
  EXPECT_EQ(v.find("b")->items()[2].as_integer(), 3);
  EXPECT_EQ(v.find("a")->find("nested")->as_bool(), true);
  EXPECT_TRUE(v.find("c")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, DecodesStringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse_json(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("\u20ac")").as_string(), "\xE2\x82\xAC");  // €
  // Surrogate pair: U+1F600 in UTF-16 escapes.
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "  ", "{", "[1,", "{\"a\":}", "tru", "1 2", "{\"a\":1} x",
        "\"unterminated", "\"bad \\q escape\"", "01", "1.", "+1", "--1",
        "{\"a\":1,\"a\":2}", "\"\\ud83d\"", "\"\x01\"", "[1,]", "{,}",
        "NaN", "Infinity"}) {
    EXPECT_THROW(parse_json(bad), Error) << "accepted: " << bad;
  }
}

TEST(Json, RejectsRunawayNesting) {
  const std::string deep(100, '[');
  EXPECT_THROW(parse_json(deep), Error);
  // 100 well-formed levels still exceed the 64-level cap.
  std::string nested = std::string(100, '[') + "1" + std::string(100, ']');
  EXPECT_THROW(parse_json(nested), Error);
}

TEST(Json, AccessorsRejectWrongKind) {
  const JsonValue v = parse_json("\"text\"");
  EXPECT_THROW(v.as_bool(), Error);
  EXPECT_THROW(v.as_integer(), Error);
  EXPECT_THROW(v.items(), Error);
  EXPECT_THROW(v.members(), Error);
  EXPECT_EQ(v.find("x"), nullptr);  // non-objects report "absent"
}

TEST(JsonWriter, CompactObject) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.key("name");
  w.value("locald");
  w.key("n");
  w.value(3);
  w.key("ok");
  w.value(true);
  w.key("rate");
  w.value(0.5, 3);
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out.str(), R"({"name":"locald","n":3,"ok":true,"rate":0.500})");
}

TEST(JsonWriter, PrettyPrintsNestedContainers) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("cells");
  w.begin_array();
  w.begin_object();
  w.key("size");
  w.value(6);
  w.end_object();
  w.end_array();
  w.key("empty");
  w.begin_array();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"cells\": [\n"
            "    {\n"
            "      \"size\": 6\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": []\n"
            "}");
}

TEST(JsonWriter, OutputRoundTripsThroughParser) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("quoted \"key\"");
  w.value("line\nbreak");
  w.key("big");
  w.value(std::uint64_t{18446744073709551615ull});
  w.key("neg");
  w.value(std::int64_t{-9000000000000000000ll});
  w.end_object();
  const JsonValue v = parse_json(out.str());
  EXPECT_EQ(v.find("quoted \"key\"")->as_string(), "line\nbreak");
  // 2^64-1 does not fit int64; the reader degrades it to a double.
  EXPECT_FALSE(v.find("big")->is_integer());
  EXPECT_EQ(v.find("neg")->as_integer(), -9000000000000000000ll);
}

TEST(JsonWriter, MisuseThrowsBugError) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  EXPECT_THROW(w.value(1), BugError);       // member value without a key
  EXPECT_THROW(w.end_array(), BugError);    // mismatched container
  w.key("k");
  EXPECT_THROW(w.key("k2"), BugError);      // key while a key is pending
  w.value(1);
  w.end_object();
  EXPECT_THROW(w.value(2), BugError);       // writing past the root
}

}  // namespace
}  // namespace locald
