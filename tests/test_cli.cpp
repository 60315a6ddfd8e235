// CLI flag parsing (examples/cli_util.hpp): every real-valued flag the
// front ends share goes through one strict parser, so a malformed value
// is a usage error (exit 1) instead of whatever std::atof made of it —
// "abc" and "" read as 0, "5abc" as 5, "inf" as infinity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../examples/cli_util.hpp"

namespace fsc {
namespace {

const std::vector<std::string> kMalformed = {"abc", "5abc", "inf", "-inf",
                                             "nan", ""};

TEST(CliParse, FiniteNumbersParseWholeTokensOnly) {
  double v = -1.0;
  EXPECT_TRUE(fsc_cli::parse_finite("5", v));
  EXPECT_EQ(v, 5.0);
  EXPECT_TRUE(fsc_cli::parse_finite("-2.5", v));
  EXPECT_EQ(v, -2.5);
  EXPECT_TRUE(fsc_cli::parse_finite("1e3", v));
  EXPECT_EQ(v, 1000.0);
  for (const std::string& text : kMalformed) {
    SCOPED_TRACE("'" + text + "'");
    double out = 42.0;
    EXPECT_FALSE(fsc_cli::parse_finite(text.c_str(), out));
    EXPECT_EQ(out, 42.0);  // untouched
  }
}

/// consume_scenario_flag on "FLAG VALUE".
fsc_cli::ScenarioFlag consume(ScenarioSpec& spec, const std::string& flag,
                              const std::string& value) {
  std::string a0 = "fsc";
  std::string a1 = flag;
  std::string a2 = value;
  char* argv[] = {a0.data(), a1.data(), a2.data()};
  int i = 1;
  return fsc_cli::consume_scenario_flag(spec, 3, argv, i);
}

TEST(CliParse, SharedRealValuedFlagsRefuseMalformedValues) {
  for (const char* flag : {"--duration", "--plant-watts", "--supply-amplitude",
                           "--facility-period"}) {
    for (const std::string& text : kMalformed) {
      SCOPED_TRACE(std::string(flag) + " '" + text + "'");
      ScenarioSpec spec;
      EXPECT_EQ(consume(spec, flag, text), fsc_cli::ScenarioFlag::kError);
    }
  }
}

TEST(CliParse, SharedRealValuedFlagsKeepTheirRanges) {
  ScenarioSpec spec;
  EXPECT_EQ(consume(spec, "--duration", "5"), fsc_cli::ScenarioFlag::kConsumed);
  EXPECT_EQ(spec.duration_s, 5.0);
  EXPECT_EQ(consume(spec, "--duration", "0"), fsc_cli::ScenarioFlag::kError);
  EXPECT_EQ(consume(spec, "--plant-watts", "-1"), fsc_cli::ScenarioFlag::kConsumed);
  EXPECT_EQ(spec.plant_capacity_watts, -1.0);  // < 0 = infinite plant
  EXPECT_EQ(consume(spec, "--supply-amplitude", "2"),
            fsc_cli::ScenarioFlag::kConsumed);
  EXPECT_EQ(spec.supply_amplitude_c, 2.0);
  EXPECT_EQ(consume(spec, "--supply-amplitude", "-2"),
            fsc_cli::ScenarioFlag::kError);
  EXPECT_EQ(consume(spec, "--facility-period", "120"),
            fsc_cli::ScenarioFlag::kConsumed);
  EXPECT_EQ(spec.facility_period_s, 120.0);
}

TEST(CliParse, BudgetStaysStrict) {
  std::optional<double> budget;
  EXPECT_TRUE(fsc_cli::parse_budget("750", budget));
  EXPECT_EQ(budget, 750.0);
  for (const std::string& text : kMalformed) {
    SCOPED_TRACE("'" + text + "'");
    std::optional<double> out;
    EXPECT_FALSE(fsc_cli::parse_budget(text.c_str(), out));
    EXPECT_FALSE(out.has_value());
  }
  EXPECT_FALSE(fsc_cli::parse_budget("-10", budget));
  EXPECT_EQ(budget, 750.0);
}

}  // namespace
}  // namespace fsc
