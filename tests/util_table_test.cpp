#include <gtest/gtest.h>

#include "util/table.hpp"

namespace mcsim {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1.5"});
  table.add_row({"b", "22.75"});
  const std::string text = table.render();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  // Numeric column is right-aligned: "  1.5" under "value".
  EXPECT_NE(text.find("  1.5"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), std::invalid_argument);
}

TEST(TextTable, EmptyColumnsThrow) {
  EXPECT_THROW(TextTable(std::vector<std::string>{}), std::invalid_argument);
}

TEST(TextTable, CountsRows) {
  TextTable table({"a"});
  table.add_row({"1"});
  table.add_row({"2"});
  EXPECT_EQ(table.row_count(), 2u);
}

}  // namespace
}  // namespace mcsim
