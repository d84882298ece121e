#include "common/string_util.h"

#include <gtest/gtest.h>

namespace vup {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, JoinsWithDelimiter) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(SplitJoinTest, RoundTrips) {
  std::vector<std::string> parts = {"one", "", "three", "4"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(TrimTest, RemovesEdgeWhitespace) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\na b\r "), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(PrefixSuffixTest, Works) {
  EXPECT_TRUE(StartsWith("vehicle_id", "vehicle"));
  EXPECT_FALSE(StartsWith("id", "vehicle"));
  EXPECT_TRUE(EndsWith("usage.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "usage.csv"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("RefuseCompactor-42"), "refusecompactor-42");
}

TEST(ParseDoubleTest, ParsesValidInput) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -2e3 ").value(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0").value(), 0.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("1.5 2.5").ok());
}

TEST(ParseIntTest, ParsesValidInput) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
}

TEST(ParseIntTest, RejectsGarbageAndOverflow) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("x").ok());
  EXPECT_TRUE(ParseInt("99999999999999999999999").status().IsOutOfRange());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%02d", 2015, 3), "2015-03");
  EXPECT_EQ(StrFormat("%.2f%%", 12.345), "12.35%");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

}  // namespace
}  // namespace vup
