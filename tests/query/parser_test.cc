// Textual query parser tests.

#include <gtest/gtest.h>

#include "query/parser.h"

namespace mwsj {
namespace {

TEST(ParserTest, ParsesPaperQ2) {
  const auto q = ParseQuery("R1 OV R2 AND R2 OV R3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().num_relations(), 3);
  EXPECT_EQ(q.value().ToString(), "R1 Ov R2 AND R2 Ov R3");
}

TEST(ParserTest, ParsesPaperQ3WithDistances) {
  const auto q = ParseQuery("R1 RA(100) R2 AND R2 RA(100) R3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().ToString(), "R1 Ra(100) R2 AND R2 Ra(100) R3");
}

TEST(ParserTest, ParsesPaperQ4Hybrid) {
  const auto q = ParseQuery("R1 OV R2 AND R2 RA(200) R3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().ToString(), "R1 Ov R2 AND R2 Ra(200) R3");
}

TEST(ParserTest, KeywordsAreCaseInsensitiveAndAliased) {
  EXPECT_TRUE(ParseQuery("a overlaps b and b range(5) c").ok());
  EXPECT_TRUE(ParseQuery("a Ov b AND b Ra(5.5) c").ok());
}

TEST(ParserTest, RepeatedNamesReuseRelations) {
  const auto q = ParseQuery("city OV forest AND forest OV river");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().num_relations(), 3);
  EXPECT_EQ(q.value().relation_names()[1], "forest");
}

TEST(ParserTest, WhitespaceIsFlexible) {
  EXPECT_TRUE(ParseQuery("  R1   OV R2   AND R2 RA( 7 )  R3 ").ok());
}

TEST(ParserTest, SyntaxErrorsCarryOffsets) {
  const auto missing_rel = ParseQuery("R1 OV");
  EXPECT_FALSE(missing_rel.ok());
  EXPECT_NE(missing_rel.status().message().find("offset"), std::string::npos);

  EXPECT_FALSE(ParseQuery("R1 NEAR R2").ok());        // Unknown predicate.
  EXPECT_FALSE(ParseQuery("R1 RA R2").ok());          // Missing (d).
  EXPECT_FALSE(ParseQuery("R1 RA(x) R2").ok());       // Bad number.
  EXPECT_FALSE(ParseQuery("R1 RA(5 R2").ok());        // Missing ')'.
  EXPECT_FALSE(ParseQuery("R1 RA(-3) R2").ok());      // Negative distance.
  EXPECT_FALSE(ParseQuery("R1 OV R2 OR R2 OV R3").ok());  // OR unsupported.
  EXPECT_FALSE(ParseQuery("").ok());
}

TEST(ParserTest, SemanticValidationStillApplies) {
  // Self-edge and disconnected graphs are rejected by the builder.
  EXPECT_FALSE(ParseQuery("R1 OV R1").ok());
  EXPECT_FALSE(ParseQuery("A OV B AND C OV D").ok());
}

}  // namespace
}  // namespace mwsj
