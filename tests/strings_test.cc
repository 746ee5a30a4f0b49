#include "common/strings.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace cvcp {
namespace {

TEST(FormatTest, BasicSubstitution) {
  EXPECT_EQ(Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Format("%.2f", 1.005), "1.00");
  EXPECT_EQ(Format("no args"), "no args");
}

TEST(FormatTest, LongOutput) {
  std::string long_str(500, 'a');
  EXPECT_EQ(Format("%s", long_str.c_str()).size(), 500u);
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ',').size(), 3u);
  EXPECT_EQ(Split("a,,c", ',')[1], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
  EXPECT_EQ(Split("x,", ',').size(), 2u);
}

TEST(FormatDoubleTest, DigitsAndNaN) {
  EXPECT_EQ(FormatDouble(0.74891, 4), "0.7489");
  EXPECT_EQ(FormatDouble(1.0, 2), "1.00");
  EXPECT_EQ(FormatDouble(std::nan(""), 4), "—");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(ParseIntegerTest, AcceptsWholeValuesOfTheFieldType) {
  int i = 0;
  EXPECT_TRUE(ParseInteger("-12", &i));
  EXPECT_EQ(i, -12);
  EXPECT_TRUE(ParseInteger("2147483647", &i));
  EXPECT_EQ(i, std::numeric_limits<int>::max());
  uint64_t u = 0;
  EXPECT_TRUE(ParseInteger("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  size_t s = 9;
  EXPECT_TRUE(ParseInteger("0", &s));
  EXPECT_EQ(s, 0u);
}

TEST(ParseIntegerTest, RejectsMalformedNegativeUnsignedAndOutOfRange) {
  int i = 5;
  for (const char* bad : {"", "x", "12abc", " 3", "3 ", "+3", "2147483648",
                          "-2147483649", "4294967297"}) {
    EXPECT_FALSE(ParseInteger(bad, &i)) << bad;
  }
  EXPECT_EQ(i, 5);  // a rejected value leaves the field alone
  size_t s = 9;
  EXPECT_FALSE(ParseInteger("-1", &s));
  EXPECT_FALSE(ParseInteger("-0", &s));
  EXPECT_EQ(s, 9u);
  uint64_t u = 7;
  EXPECT_FALSE(ParseInteger("18446744073709551616", &u));
  EXPECT_EQ(u, 7u);
}

}  // namespace
}  // namespace cvcp
