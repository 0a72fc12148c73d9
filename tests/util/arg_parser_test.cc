#include "kgacc/util/arg_parser.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

ArgParser MakeParser() {
  ArgParser parser;
  parser.AddFlag("kg", "path").AddFlag("alpha", "level").AddFlag("json",
                                                                 "toggle");
  parser.AddFlag("port", "port").AddFlag("seed", "seed").AddFlag(
      "checkpoint-every", "cadence");
  return parser;
}

Result<ParsedArgs> ParseAll(const std::vector<const char*>& argv) {
  return MakeParser().Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParserTest, EqualsSyntax) {
  const auto args = *ParseAll({"--kg=facts.tsv", "--alpha=0.01"});
  EXPECT_EQ(args.GetString("kg"), "facts.tsv");
  EXPECT_DOUBLE_EQ(*args.GetDouble("alpha", 0.05), 0.01);
}

TEST(ArgParserTest, SpaceSyntax) {
  const auto args = *ParseAll({"--kg", "facts.tsv"});
  EXPECT_EQ(args.GetString("kg"), "facts.tsv");
}

TEST(ArgParserTest, BooleanForms) {
  EXPECT_TRUE(*(*ParseAll({"--json"})).GetBool("json", false));
  EXPECT_TRUE(*(*ParseAll({"--json=true"})).GetBool("json", false));
  EXPECT_TRUE(*(*ParseAll({"--json=1"})).GetBool("json", false));
  EXPECT_FALSE(*(*ParseAll({"--json=false"})).GetBool("json", true));
  EXPECT_FALSE(*(*ParseAll({"--json=0"})).GetBool("json", true));
  EXPECT_FALSE((*ParseAll({"--json=maybe"})).GetBool("json", false).ok());
}

TEST(ArgParserTest, FallbacksWhenAbsent) {
  const auto args = *ParseAll({});
  EXPECT_EQ(args.GetString("kg", "default.tsv"), "default.tsv");
  EXPECT_DOUBLE_EQ(*args.GetDouble("alpha", 0.05), 0.05);
  EXPECT_EQ(*args.GetInt("alpha", 7, INT64_MIN, INT64_MAX), 7);
  EXPECT_FALSE(*args.GetBool("json", false));
  EXPECT_FALSE(args.Has("kg"));
}

TEST(ArgParserTest, UnknownFlagIsError) {
  const auto r = ParseAll({"--bogus=1"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bogus"), std::string::npos);
}

TEST(ArgParserTest, MalformedNumbersAreErrors) {
  const auto args = *ParseAll({"--alpha=abc"});
  EXPECT_FALSE(args.GetDouble("alpha", 0.05).ok());
  EXPECT_FALSE(args.GetInt("alpha", 1, INT64_MIN, INT64_MAX).ok());
}

TEST(ArgParserTest, IntegersOutsideTheirRangeAreErrors) {
  const auto args = *ParseAll({"--port=70000", "--checkpoint-every=-1"});
  const auto port = args.GetInt("port", 0, 0, 65535);
  ASSERT_FALSE(port.ok());
  EXPECT_EQ(port.status().code(), StatusCode::kInvalidArgument);
  // The error names the flag and its range.
  EXPECT_NE(port.status().message().find("--port"), std::string::npos);
  EXPECT_NE(port.status().message().find("[0, 65535]"), std::string::npos);
  EXPECT_FALSE(args.GetInt("checkpoint-every", 1, 1, INT64_MAX).ok());
  EXPECT_FALSE((*ParseAll({"--port=-1"})).GetInt("port", 0, 0, 65535).ok());
  // strtoll overflow is an error, not a saturated value in range.
  for (const char* arg :
       {"--seed=99999999999999999999", "--seed=-99999999999999999999"}) {
    EXPECT_FALSE(
        (*ParseAll({arg})).GetInt("seed", 42, INT64_MIN, INT64_MAX).ok())
        << arg;
  }
  // The bounds themselves are in range.
  EXPECT_EQ(*(*ParseAll({"--port=65535"})).GetInt("port", 0, 0, 65535),
            65535);
  EXPECT_EQ(*(*ParseAll({"--port=0"})).GetInt("port", 1, 0, 65535), 0);
  EXPECT_EQ(*(*ParseAll({"--seed=9223372036854775807"}))
                 .GetInt("seed", 42, 0, INT64_MAX),
            INT64_MAX);
}

TEST(ArgParserTest, PositionalArguments) {
  const auto args = *ParseAll({"--kg=x.tsv", "first", "second"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "first");
  EXPECT_EQ(args.positional()[1], "second");
}

TEST(ArgParserTest, DoubleDashEndsFlagParsing) {
  const auto args = *ParseAll({"--", "--kg=hidden"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "--kg=hidden");
  EXPECT_FALSE(args.Has("kg"));
}

TEST(ArgParserTest, HelpTextListsAllFlags) {
  const std::string help = MakeParser().HelpText();
  EXPECT_NE(help.find("--kg"), std::string::npos);
  EXPECT_NE(help.find("--alpha"), std::string::npos);
  EXPECT_NE(help.find("--json"), std::string::npos);
}

}  // namespace
}  // namespace kgacc
