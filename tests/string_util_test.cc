#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "strict_json.h"

namespace paygo {
namespace {

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo 123!"), "hello 123!");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t x \n"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("nospace"), "nospace");
}

TEST(StringUtilTest, SplitAnyDropsEmptyPieces) {
  EXPECT_EQ(SplitAny("a/b__c", "/_"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitAny("///", "/"), (std::vector<std::string>{}));
  EXPECT_EQ(SplitAny("plain", "/"), (std::vector<std::string>{"plain"}));
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  const std::string s = "alpha;beta;gamma";
  EXPECT_EQ(Join(Split(s, ';'), ";"), s);
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("schema foo", "schema "));
  EXPECT_FALSE(StartsWith("sch", "schema"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringUtilTest, IsAlphaAscii) {
  EXPECT_TRUE(IsAlphaAscii("hello"));
  EXPECT_FALSE(IsAlphaAscii("hello1"));
  EXPECT_FALSE(IsAlphaAscii(""));
  EXPECT_FALSE(IsAlphaAscii("a b"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(1.0, 2), "1.00");
  EXPECT_EQ(FormatDouble(-2.5, 1), "-2.5");
}

TEST(StringUtilTest, JsonEscapeEmitsStrictJsonForEveryControlByte) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 \x7f"), "caf\xc3\xa9 \x7f");
  // Every byte below 0x20, plus quote, backslash and DEL, inside one
  // string literal: the result must parse as strict JSON.
  std::string all;
  for (int c = 0; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  all += "\"\\/\x7f end";
  const std::string doc = "{\"s\": \"" + JsonEscape(all) + "\"}";
  EXPECT_TRUE(strict_json::IsValid(doc)) << strict_json::ErrorOf(doc);
}

TEST(StringUtilTest, ParseNumberAcceptsWholeDecimalValues) {
  EXPECT_EQ(ParseNumber<std::size_t>("0"), 0u);
  EXPECT_EQ(ParseNumber<std::size_t>("4"), 4u);
  EXPECT_EQ(ParseNumber<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ParseNumber<int>("-7"), -7);
  EXPECT_EQ(ParseNumber<double>("0.25"), 0.25);
  EXPECT_EQ(ParseNumber<double>("-1.5e-3"), -1.5e-3);
  EXPECT_EQ(ParseNumber<double>("2"), 2.0);
}

TEST(StringUtilTest, ParseNumberRejectsEmptyInput) {
  EXPECT_EQ(ParseNumber<std::size_t>(""), std::nullopt);
  EXPECT_EQ(ParseNumber<int>(""), std::nullopt);
  EXPECT_EQ(ParseNumber<double>(""), std::nullopt);
}

TEST(StringUtilTest, ParseNumberRejectsSignsOnUnsigned) {
  EXPECT_EQ(ParseNumber<std::size_t>("-1"), std::nullopt);
  EXPECT_EQ(ParseNumber<std::size_t>("-0"), std::nullopt);
  EXPECT_EQ(ParseNumber<std::uint64_t>("+3"), std::nullopt);
  EXPECT_EQ(ParseNumber<int>("+3"), std::nullopt);
  EXPECT_EQ(ParseNumber<double>("+0.5"), std::nullopt);
}

TEST(StringUtilTest, ParseNumberRejectsTrailingGarbage) {
  EXPECT_EQ(ParseNumber<std::size_t>("abc"), std::nullopt);
  EXPECT_EQ(ParseNumber<std::size_t>("4x"), std::nullopt);
  EXPECT_EQ(ParseNumber<std::size_t>("4 "), std::nullopt);
  EXPECT_EQ(ParseNumber<std::size_t>(" 4"), std::nullopt);
  EXPECT_EQ(ParseNumber<std::size_t>("4.0"), std::nullopt);
  EXPECT_EQ(ParseNumber<int>("12abc"), std::nullopt);
  EXPECT_EQ(ParseNumber<double>("abc"), std::nullopt);
  EXPECT_EQ(ParseNumber<double>("0.25x"), std::nullopt);
  EXPECT_EQ(ParseNumber<double>("1e"), std::nullopt);
}

TEST(StringUtilTest, ParseNumberRejectsOverflowAndNonFinite) {
  EXPECT_EQ(ParseNumber<std::uint64_t>("18446744073709551616"),
            std::nullopt);
  EXPECT_EQ(ParseNumber<int>("2147483648"), std::nullopt);
  EXPECT_EQ(ParseNumber<int>("-2147483649"), std::nullopt);
  EXPECT_EQ(ParseNumber<double>("1e400"), std::nullopt);
  EXPECT_EQ(ParseNumber<double>("inf"), std::nullopt);
  EXPECT_EQ(ParseNumber<double>("nan"), std::nullopt);
}

}  // namespace
}  // namespace paygo
