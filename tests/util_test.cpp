// Unit tests for soda::util — string helpers, Result, tables, CSV, logging.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/result.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace soda::util {
namespace {

// ---------- strings ----------

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Split, SingleFieldWhenNoSeparator) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Split, TrailingSeparatorYieldsTrailingEmpty) {
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(SplitWhitespace, DropsRuns) {
  EXPECT_EQ(split_whitespace("  a \t b\n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitWhitespace, EmptyAndBlankInputs) {
  EXPECT_TRUE(split_whitespace("").empty());
  EXPECT_TRUE(split_whitespace(" \t\n ").empty());
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Join, IntersperseSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("HTTP/1.1", "HTTP/"));
  EXPECT_FALSE(starts_with("HTT", "HTTP"));
  EXPECT_TRUE(ends_with("image.rpm", ".rpm"));
  EXPECT_FALSE(ends_with("rpm", ".rpm"));
}

TEST(ToLower, AsciiOnly) { EXPECT_EQ(to_lower("Content-LENGTH"), "content-length"); }

TEST(ParseInt, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int(" 7 ").value(), 7);
  EXPECT_EQ(parse_int("0").value(), 0);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("-3").has_value());
  EXPECT_FALSE(parse_int("4.5").has_value());
}

TEST(ParseDouble, AcceptsFractions) {
  EXPECT_DOUBLE_EQ(parse_double("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("10").value(), 10.0);
}

TEST(ParseDouble, RejectsNegativeAndGarbage) {
  EXPECT_FALSE(parse_double("-1").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
}

TEST(FormatBytes, PicksUnit) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(29 * 1024 * 1024 + 300 * 1024), "29.3 MB");
  EXPECT_EQ(format_bytes(1024LL * 1024 * 1024), "1.0 GB");
}

TEST(FormatSeconds, OneDecimal) { EXPECT_EQ(format_seconds(3.04), "3.0 sec"); }

// ---------- Result ----------

TEST(Result, ValuePath) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(9), 7);
}

TEST(Result, ErrorPath) {
  Result<int> r(Error{"boom"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "boom");
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(Result, VoidSpecialization) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad(Error{"no"});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "no");
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

TEST(Must, ReturnsValue) { EXPECT_EQ(must(Result<int>(3)), 3); }

// ---------- AsciiTable ----------

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable table({"Name", "Size"});
  table.set_alignment({Align::kLeft, Align::kRight});
  table.add_row({"S_I", "29.3 MB"});
  table.add_row({"S_IV", "253 MB"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| Name | Size    |"), std::string::npos);
  EXPECT_NE(out.find("| S_I  | 29.3 MB |"), std::string::npos);
  EXPECT_NE(out.find("| S_IV |  253 MB |"), std::string::npos);
}

TEST(AsciiTable, HeaderSeparatorPresent) {
  AsciiTable table({"A"});
  table.add_row({"x"});
  EXPECT_NE(table.render().find("|---"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(AsciiTable, WidensToLongestCell) {
  AsciiTable table({"C"});
  table.add_row({"long-cell-content"});
  EXPECT_NE(table.render().find("| long-cell-content |"), std::string::npos);
}

// ---------- CSV ----------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RendersHeaderAndRows) {
  CsvWriter csv({"x", "y"});
  csv.add_row({"1", "2"});
  csv.add_row({"3", "4,5"});
  EXPECT_EQ(csv.render(), "x,y\n1,2\n3,\"4,5\"\n");
  EXPECT_EQ(csv.row_count(), 2u);
}

// ---------- Logger ----------

TEST(Logger, CapturesAtOrAboveLevel) {
  Logger logger;
  std::vector<LogRecord> records;
  logger.set_sink(capture_sink(records));
  logger.set_level(LogLevel::kInfo);
  logger.debug("c", "dropped");
  logger.info("c", "kept");
  logger.error("c", "also kept");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].message, "kept");
  EXPECT_EQ(records[1].level, LogLevel::kError);
}

TEST(Logger, OffSilencesEverything) {
  Logger logger;
  std::vector<LogRecord> records;
  logger.set_sink(capture_sink(records));
  logger.set_level(LogLevel::kOff);
  logger.error("c", "x");
  EXPECT_TRUE(records.empty());
}

TEST(Logger, MultipleSinksAllReceive) {
  Logger logger;
  std::vector<LogRecord> a, b;
  logger.set_sink(capture_sink(a));
  logger.add_sink(capture_sink(b));
  logger.set_level(LogLevel::kDebug);
  logger.warn("w", "msg");
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

// The level is read without the lock: workers logging while another thread
// flips the level must neither race nor lose a record emitted while enabled.
TEST(Logger, LevelFlipsWhileWorkersLog) {
  Logger logger;
  std::vector<LogRecord> records;
  logger.set_sink(capture_sink(records));
  logger.set_level(LogLevel::kOff);
  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 2000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&logger] {
      for (int i = 0; i < kPerWorker; ++i) {
        if (logger.enabled(LogLevel::kInfo)) logger.info("w", "on");
        logger.warn("w", "maybe");
      }
    });
  }
  for (int i = 0; i < 1000; ++i) {
    logger.set_level(i % 2 == 0 ? LogLevel::kInfo : LogLevel::kOff);
  }
  for (auto& worker : workers) worker.join();
  EXPECT_LE(records.size(), static_cast<std::size_t>(2 * kWorkers * kPerWorker));
  for (const LogRecord& record : records) EXPECT_GE(record.level, LogLevel::kInfo);
  logger.set_level(LogLevel::kWarn);
  logger.warn("w", "after");
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().message, "after");
}

TEST(Logger, LevelNames) {
  EXPECT_EQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(log_level_name(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace soda::util
