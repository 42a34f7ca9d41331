#include <gtest/gtest.h>

#include "json/json.h"

namespace fsdep::json {
namespace {

TEST(JsonValue, Kinds) {
  EXPECT_TRUE(Value(nullptr).isNull());
  EXPECT_TRUE(Value(true).isBool());
  EXPECT_TRUE(Value(7).isInt());
  EXPECT_TRUE(Value(3.5).isDouble());
  EXPECT_TRUE(Value("hi").isString());
  EXPECT_TRUE(Value(Array{}).isArray());
  EXPECT_TRUE(Value(Object{}).isObject());
}

TEST(JsonValue, NumericCoercion) {
  EXPECT_EQ(Value(3.9).asInt(), 3);
  EXPECT_DOUBLE_EQ(Value(7).asDouble(), 7.0);
  EXPECT_EQ(Value("nope").asInt(42), 42);
}

TEST(JsonObject, PreservesInsertionOrder) {
  Object o;
  o["zulu"] = 1;
  o["alpha"] = 2;
  o["mike"] = 3;
  std::vector<std::string> keys;
  for (const auto& [k, v] : o) keys.push_back(k);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "zulu");
  EXPECT_EQ(keys[1], "alpha");
  EXPECT_EQ(keys[2], "mike");
}

TEST(JsonObject, FindAndOverwrite) {
  Object o;
  o["k"] = 1;
  o["k"] = 2;
  ASSERT_EQ(o.size(), 1u);
  EXPECT_EQ(o.find("k")->asInt(), 2);
  EXPECT_EQ(o.find("missing"), nullptr);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").value().isNull());
  EXPECT_EQ(parse("true").value().asBool(), true);
  EXPECT_EQ(parse("false").value().asBool(), false);
  EXPECT_EQ(parse("123").value().asInt(), 123);
  EXPECT_EQ(parse("-45").value().asInt(), -45);
  EXPECT_DOUBLE_EQ(parse("2.5").value().asDouble(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e3").value().asDouble(), 1000.0);
  EXPECT_EQ(parse("\"hey\"").value().asString(), "hey");
}

TEST(JsonParse, Escapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"c\"\\")").value().asString(), "a\nb\t\"c\"\\");
  EXPECT_EQ(parse(R"("A")").value().asString(), "A");
  EXPECT_EQ(parse(R"("é")").value().asString(), "\xc3\xa9");
}

TEST(JsonParse, NestedStructure) {
  const auto v = parse(R"({"deps": [{"id": 1, "ok": true}, {"id": 2}], "total": 2})");
  ASSERT_TRUE(v.ok());
  const Object& o = v.value().asObject();
  ASSERT_TRUE(o.contains("deps"));
  const Array& deps = o.find("deps")->asArray();
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_EQ(deps[0].asObject().find("id")->asInt(), 1);
  EXPECT_TRUE(deps[0].asObject().find("ok")->asBool());
  EXPECT_EQ(o.find("total")->asInt(), 2);
}

TEST(JsonParse, Errors) {
  EXPECT_FALSE(parse("").ok());
  EXPECT_FALSE(parse("{").ok());
  EXPECT_FALSE(parse("[1,]").ok());
  EXPECT_FALSE(parse("{\"a\" 1}").ok());
  EXPECT_FALSE(parse("tru").ok());
  EXPECT_FALSE(parse("\"unterminated").ok());
  EXPECT_FALSE(parse("1 2").ok()) << "trailing garbage must be rejected";
}

TEST(JsonParse, NestingWithinTheBudgetParses) {
  const std::string text =
      std::string(kMaxDepth - 1, '[') + "{\"a\":1}" + std::string(kMaxDepth - 1, ']');
  const auto v = parse(text);
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(writeCompact(v.value()), text);
}

TEST(JsonParse, NestingPastTheBudgetIsATypedError) {
  for (const std::string& text :
       {std::string(kMaxDepth + 1, '['), std::string(200000, '['),
        std::string(kMaxDepth, '[') + "{}" + std::string(kMaxDepth, ']')}) {
    const auto v = parse(text);
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("nesting too deep"), std::string::npos) << v.error().message;
  }
}

TEST(JsonParse, ErrorReportsLine) {
  const auto v = parse("{\n  \"a\": 1,\n  \"b\": oops\n}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message.find("line 3"), std::string::npos);
}

TEST(JsonWrite, CompactAndPretty) {
  Object o;
  o["name"] = "fsdep";
  Array arr;
  arr.emplace_back(1);
  arr.emplace_back(2);
  o["values"] = std::move(arr);
  EXPECT_EQ(writeCompact(o), R"({"name":"fsdep","values":[1,2]})");
  const std::string pretty = writePretty(o);
  EXPECT_NE(pretty.find("\n  \"name\": \"fsdep\""), std::string::npos);
  EXPECT_EQ(pretty.back(), '\n');
}

TEST(JsonWrite, EscapesControlCharacters) {
  const std::string out = writeCompact(Value(std::string("a\x01") + "\n"));
  EXPECT_EQ(out, R"("a\u0001\n")");
}

TEST(JsonRoundTrip, EqualAfterReparse) {
  const char* documents[] = {
      "null",
      "[1,2,3]",
      R"({"a":{"b":[true,false,null]},"c":"text with \"quotes\""})",
      R"([{"nested":[[1],[2,[3]]]},-17,0.25])",
  };
  for (const char* doc : documents) {
    const auto first = parse(doc);
    ASSERT_TRUE(first.ok()) << doc;
    const std::string compact = writeCompact(first.value());
    const auto second = parse(compact);
    ASSERT_TRUE(second.ok()) << compact;
    EXPECT_TRUE(first.value() == second.value()) << doc;
    // Pretty output must reparse to the same value too.
    const auto third = parse(writePretty(first.value()));
    ASSERT_TRUE(third.ok());
    EXPECT_TRUE(first.value() == third.value()) << doc;
  }
}

class JsonIntRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(JsonIntRoundTrip, PreservesValue) {
  const std::int64_t value = GetParam();
  const std::string text = writeCompact(Value(value));
  const auto parsed = parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().isInt());
  EXPECT_EQ(parsed.value().asInt(), value);
}

INSTANTIATE_TEST_SUITE_P(Values, JsonIntRoundTrip,
                         ::testing::Values(0, 1, -1, 42, -65536, 1LL << 40, -(1LL << 40),
                                           9007199254740991LL));

}  // namespace
}  // namespace fsdep::json
