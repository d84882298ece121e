#include "common/string_util.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.h"

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

std::string Printf17(double v) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf, static_cast<size_t>(n));
}

/// Counts values whose WriteDouble17 bytes differ from printf's "%.17g",
/// reporting the first few.
size_t CountMismatches(const std::vector<double>& values) {
  size_t mismatches = 0;
  std::ostringstream os;
  for (double v : values) {
    os.str("");
    WriteDouble17(os, v);
    const std::string expected = Printf17(v);
    if (os.str() != expected) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<uint64_t>(v)
                      << ": wrote '" << os.str() << "', printf '"
                      << expected << "'";
      }
    }
  }
  return mismatches;
}

TEST(WriteDouble17Test, SpecialValuesMatchPrintf) {
  using Limits = std::numeric_limits<double>;
  const double nan = Limits::quiet_NaN();
  const std::vector<double> values = {
      0.0, -0.0, Limits::infinity(), -Limits::infinity(), nan,
      std::copysign(nan, -1.0), Limits::denorm_min(), -Limits::denorm_min(),
      std::nextafter(Limits::min(), 0.0), Limits::min(), Limits::max(),
      -Limits::max(), Limits::epsilon(), 1.0, -1.0, 0.1, 1.0 / 3.0, 1e22,
      1e23, 9007199254740993.0, 123456789012345678.0, 1e-5, 1e16, 1e17,
      0.5, 2.5, 100.0};
  EXPECT_EQ(CountMismatches(values), 0u);
  std::ostringstream os;
  WriteDouble17(os, 0.1);
  EXPECT_EQ(os.str(), "0.10000000000000001");
}

TEST(WriteDouble17Test, MillionRandomBitPatternsMatchPrintf) {
  Rng rng(17);
  std::vector<double> values;
  values.reserve(1'200'000);
  // Every bit pattern is a double (NaN payloads and denormals included).
  for (int i = 0; i < 1'000'000; ++i) {
    values.push_back(std::bit_cast<double>(rng.NextUint64()));
  }
  // Random bits rarely land on model-scale magnitudes; cover those too.
  for (int i = 0; i < 200'000; ++i) {
    values.push_back(rng.Normal() * std::pow(10.0, rng.UniformInt(-8, 8)));
  }
  EXPECT_EQ(CountMismatches(values), 0u);
}

}  // namespace
}  // namespace vup
