#include <gtest/gtest.h>

#include "common/table.h"

namespace cvcp {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t("Table 1: demo");
  t.SetHeader({"Data", "CVCP", "Expected"});
  t.AddRow({"ALOI", "0.7489", "0.7154"});
  t.AddRow({"Iris", "0.7251", "0.6982"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("Table 1: demo"), std::string::npos);
  EXPECT_NE(out.find("Data"), std::string::npos);
  EXPECT_NE(out.find("0.7489"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  // Column alignment: "CVCP" and its values start at the same offset.
  const size_t header_pos = out.find("CVCP");
  const size_t value_pos = out.find("0.7489");
  const size_t header_col = header_pos - out.rfind('\n', header_pos) - 1;
  const size_t value_col = value_pos - out.rfind('\n', value_pos) - 1;
  EXPECT_EQ(header_col, value_col);
}

TEST(TextTableTest, RaggedRowsPadded) {
  TextTable t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"1"});
  t.AddRow({"1", "2", "3", "4"});
  const std::string out = t.Render();
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTableTest, EmptyTable) {
  TextTable t("caption only");
  EXPECT_EQ(t.Render(), "caption only\n");
}

}  // namespace
}  // namespace cvcp
