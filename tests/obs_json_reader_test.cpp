// The JSON reader: writer -> reader round trips (bit-exact doubles, escape
// handling, member order) and loud rejection of malformed documents.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/json_reader.hpp"

namespace mcsim::obs {
namespace {

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_EQ(parse_json("42").as_uint(), 42u);
  EXPECT_EQ(parse_json("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse_json("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(parse_json("\"hello\"").as_string(), "hello");
}

TEST(JsonReader, ParsesNestedStructure) {
  const auto doc = parse_json(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").at(0).as_uint(), 1u);
  EXPECT_TRUE(doc.at("a").at(2).at("b").as_bool());
  EXPECT_TRUE(doc.at("c").at("d").is_null());
  EXPECT_TRUE(doc.contains("a"));
  EXPECT_FALSE(doc.contains("x"));
  EXPECT_EQ(doc.find("x"), nullptr);
}

TEST(JsonReader, PreservesMemberOrder) {
  const auto doc = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.members()[2].first, "m");
}

TEST(JsonReader, DoublesRoundTripBitExactly) {
  // The reproducibility contract: whatever json_double prints, as_double
  // must read back to the identical bits.
  for (const double value : {1.0 / 3.0, 6.0221408e23, 1e-300, -0.1,
                             123456789.123456789, 5e-324}) {
    const auto parsed = parse_json(json_double(value));
    EXPECT_EQ(parsed.as_double(), value) << json_double(value);
  }
}

TEST(JsonReader, LargeSeedsRoundTripExactly) {
  // Seeds are 64-bit; beyond 2^53 a double would silently round.
  const std::uint64_t seed = 0xFFFFFFFFFFFFFFFFull;
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("seed").value(seed);
  json.end_object();
  EXPECT_EQ(parse_json(out.str()).at("seed").as_uint(), seed);
}

TEST(JsonReader, WriterEscapesRoundTrip) {
  const std::string nasty = "quote \" backslash \\ newline \n tab \t bell \x07";
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("s").value(nasty);
  json.end_object();
  EXPECT_EQ(parse_json(out.str()).at("s").as_string(), nasty);
}

TEST(JsonReader, DecodesUnicodeEscapes) {
  EXPECT_EQ(parse_json(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("\u00e9")").as_string(), "\xC3\xA9");          // é
  EXPECT_EQ(parse_json(R"("\u20ac")").as_string(), "\xE2\x82\xAC");      // €
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(), "\xF0\x9F\x98\x80");  // 😀
}

TEST(JsonReader, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\" 1}", "{\"a\": 1,}", "nul", "01x", "1.2.3",
        "\"unterminated", "{\"a\": 1} trailing", "\"\\q\"", "\"\\ud800\"", "-"}) {
    EXPECT_THROW(parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonReader, RejectsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(parse_json(deep), std::invalid_argument);
}

TEST(JsonReader, KindMismatchesThrow) {
  const auto doc = parse_json(R"({"n": 1.5, "s": "x"})");
  EXPECT_THROW((void)doc.at("n").as_string(), std::invalid_argument);
  EXPECT_THROW((void)doc.at("s").as_double(), std::invalid_argument);
  EXPECT_THROW((void)doc.at("n").as_uint(), std::invalid_argument);  // not integral
  EXPECT_THROW((void)doc.at(0), std::invalid_argument);        // object, not array
  EXPECT_THROW((void)parse_json("-3").as_uint(), std::invalid_argument);
  EXPECT_THROW((void)doc.at("missing"), std::invalid_argument);
}

TEST(JsonReader, StreamAndStringAgree) {
  const std::string text = R"({"k": [1, 2.5, "v"]})";
  std::istringstream in(text);
  const auto from_stream = parse_json(in);
  EXPECT_EQ(from_stream.at("k").at(1).as_double(),
            parse_json(text).at("k").at(1).as_double());
}

TEST(JsonReader, MissingFileThrows) {
  EXPECT_THROW(parse_json_file("/nonexistent/path.json"), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::obs
