#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sweep::util {
namespace {

CliParser make_parser() {
  CliParser cli("prog", "test program");
  cli.add_flag("full", "run at paper scale");
  cli.add_option("procs", "8,16", "processor counts");
  cli.add_option("scale", "0.5", "mesh scale");
  cli.add_option("name", "tetonly", "mesh name");
  return cli;
}

TEST(Cli, DefaultsApply) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_FALSE(cli.flag("full"));
  EXPECT_DOUBLE_EQ(cli.real("scale"), 0.5);
  EXPECT_EQ(cli.str("name"), "tetonly");
  EXPECT_EQ(cli.int_list("procs"), (std::vector<std::int64_t>{8, 16}));
}

TEST(Cli, ParsesSeparateAndInlineValues) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--full", "--scale", "1.25", "--name=long"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_TRUE(cli.flag("full"));
  EXPECT_DOUBLE_EQ(cli.real("scale"), 1.25);
  EXPECT_EQ(cli.str("name"), "long");
}

TEST(Cli, ParsesIntegerLists) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--procs", "1,2,4,8,512"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.int_list("procs"),
            (std::vector<std::int64_t>{1, 2, 4, 8, 512}));
  // "0.5" is not an integer: strict parsing reports it instead of the old
  // silent strtoll -> 0.
  EXPECT_THROW((void)cli.integer("scale"), std::invalid_argument);
}

TEST(Cli, IntegerRejectsGarbage) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--name=abc", "--scale", "12x"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_THROW((void)cli.integer("name"), std::invalid_argument);   // "abc"
  EXPECT_THROW((void)cli.integer("scale"), std::invalid_argument);  // "12x"
  EXPECT_THROW((void)cli.real("name"), std::invalid_argument);
}

TEST(Cli, IntegerRejectsEmptyAndOverflow) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--name=", "--scale",
                        "99999999999999999999999999"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_THROW((void)cli.integer("name"), std::invalid_argument);
  EXPECT_THROW((void)cli.integer("scale"), std::invalid_argument);
}

TEST(Cli, NonNegativeRejectsNegativeValues) {
  // The sweep_serve sizes and counts: a negative value must not wrap to
  // 2^64 - 1 (an unbounded cache, a pool of 2^64 - 1 threads).
  CliParser cli("prog", "t");
  cli.add_option("threads", "0", "worker threads");
  cli.add_option("cache-entries", "4096", "entry bound");
  cli.add_option("cache-bytes", "268435456", "byte bound");
  cli.add_option("slow-request-ms", "50", "slow-request threshold");
  const char* argv[] = {"prog", "--threads", "-1", "--cache-bytes=-1",
                        "--slow-request-ms", "-9223372036854775808"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_THROW((void)cli.non_negative("threads"), std::invalid_argument);
  EXPECT_THROW((void)cli.non_negative("cache-bytes"), std::invalid_argument);
  EXPECT_THROW((void)cli.non_negative("slow-request-ms"),
               std::invalid_argument);
  EXPECT_EQ(cli.non_negative("cache-entries"), 4096u);
  // integer() still reads the raw value for options that may be negative.
  EXPECT_EQ(cli.integer("threads"), -1);
  try {
    (void)cli.non_negative("cache-bytes");
    FAIL() << "--cache-bytes=-1 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--cache-bytes"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, NonNegativeAcceptsZeroAndRejectsGarbage) {
  CliParser cli("prog", "t");
  cli.add_option("cache-entries", "0", "entry bound");
  cli.add_option("threads", "4x", "worker threads");
  cli.add_option("cache-bytes", "99999999999999999999999", "byte bound");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.non_negative("cache-entries"), 0u);
  EXPECT_THROW((void)cli.non_negative("threads"), std::invalid_argument);
  EXPECT_THROW((void)cli.non_negative("cache-bytes"), std::invalid_argument);
}

TEST(Cli, RealRejectsTrailingGarbage) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--scale", "0.5.3"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW((void)cli.real("scale"), std::invalid_argument);
  EXPECT_THROW((void)cli.real("name"), std::invalid_argument);  // "tetonly"
}

TEST(Cli, IntListRejectsMalformedElements) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--procs", "1,,2"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.int_list("procs"), std::invalid_argument);

  CliParser cli2 = make_parser();
  const char* argv2[] = {"prog", "--procs", "1,abc"};
  ASSERT_TRUE(cli2.parse(3, argv2));
  EXPECT_THROW(cli2.int_list("procs"), std::invalid_argument);

  CliParser cli3 = make_parser();
  const char* argv3[] = {"prog", "--procs", "1,2,"};
  ASSERT_TRUE(cli3.parse(3, argv3));
  EXPECT_THROW(cli3.int_list("procs"), std::invalid_argument);
}

TEST(Cli, EmptyStringIsEmptyIntList) {
  CliParser cli("prog", "t");
  cli.add_option("list", "", "optional list");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_TRUE(cli.int_list("list").empty());
}

TEST(Cli, FlagRejectsNonBooleanInlineValue) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--full=yes"};
  EXPECT_FALSE(cli.parse(2, argv));  // error, not a silent false

  CliParser cli2 = make_parser();
  const char* argv2[] = {"prog", "--full=false"};
  ASSERT_TRUE(cli2.parse(2, argv2));
  EXPECT_FALSE(cli2.flag("full"));

  CliParser cli3 = make_parser();
  const char* argv3[] = {"prog", "--full=1"};
  ASSERT_TRUE(cli3.parse(2, argv3));
  EXPECT_TRUE(cli3.flag("full"));
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, RejectsMissingValue) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--scale"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, RejectsPositional) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "oops"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, ParseQuietReturnsTheRejectionParsePrints) {
  CliParser ok = make_parser();
  const char* argv_ok[] = {"prog", "--full", "--scale=0.25"};
  EXPECT_FALSE(ok.parse_quiet(3, argv_ok).has_value());
  EXPECT_TRUE(ok.flag("full"));
  EXPECT_DOUBLE_EQ(ok.real("scale"), 0.25);

  CliParser flag = make_parser();
  const char* argv_flag[] = {"prog", "--full=yes"};
  const auto bad_flag = flag.parse_quiet(2, argv_flag);
  ASSERT_TRUE(bad_flag.has_value());
  EXPECT_EQ(bad_flag->message,
            "prog: flag '--full' takes no value or true/false/1/0, got 'yes'");
  EXPECT_FALSE(bad_flag->show_help);

  CliParser missing = make_parser();
  const char* argv_missing[] = {"prog", "--scale"};
  const auto no_value = missing.parse_quiet(2, argv_missing);
  ASSERT_TRUE(no_value.has_value());
  EXPECT_EQ(no_value->message, "prog: option '--scale' requires a value");
  EXPECT_FALSE(no_value->show_help);

  CliParser unknown = make_parser();
  const char* argv_unknown[] = {"prog", "--bogus"};
  const auto bogus = unknown.parse_quiet(2, argv_unknown);
  ASSERT_TRUE(bogus.has_value());
  EXPECT_EQ(bogus->message, "prog: unknown option '--bogus'");
  EXPECT_TRUE(bogus->show_help);

  CliParser positional = make_parser();
  const char* argv_positional[] = {"prog", "oops"};
  const auto stray = positional.parse_quiet(2, argv_positional);
  ASSERT_TRUE(stray.has_value());
  EXPECT_EQ(stray->message, "prog: unexpected positional argument 'oops'");
  EXPECT_TRUE(stray->show_help);

  CliParser help = make_parser();
  const char* argv_help[] = {"prog", "-h"};
  const auto asked = help.parse_quiet(2, argv_help);
  ASSERT_TRUE(asked.has_value());
  EXPECT_TRUE(asked->message.empty());
  EXPECT_TRUE(asked->show_help);
}

}  // namespace
}  // namespace sweep::util
