// Tests for the INI parser and the scenario loader.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>

#include "core/scenario_io.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"

namespace vmcons {
namespace {

TEST(Ini, ParsesSectionsAndValues) {
  const IniDocument document = ini_parse(
      "# comment\n"
      "[alpha]\n"
      "key = value\n"
      "number = 42\n"
      "rate = 2.5\n"
      "\n"
      "[alpha]\n"
      "key = second\n"
      "; another comment\n"
      "[beta]\n"
      "flag = yes  # trailing comment\n");
  ASSERT_EQ(document.sections.size(), 3u);
  const auto alphas = document.all("alpha");
  ASSERT_EQ(alphas.size(), 2u);
  EXPECT_EQ(alphas[0]->get("key"), "value");
  EXPECT_EQ(alphas[0]->get_int("number", 0), 42);
  EXPECT_DOUBLE_EQ(alphas[0]->get_double("rate", 0.0), 2.5);
  EXPECT_EQ(alphas[1]->get("key"), "second");
  EXPECT_EQ(document.first("beta")->get("flag"), "yes");
  EXPECT_TRUE(document.first("beta")->has("flag"));
  EXPECT_FALSE(document.first("beta")->has("missing"));
  EXPECT_EQ(document.first("missing"), nullptr);
}

TEST(Ini, DefaultsAndTypeErrors) {
  const IniDocument document = ini_parse("[s]\nvalue = abc\n");
  const IniSection* section = document.first("s");
  EXPECT_EQ(section->get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(section->get_double("missing", 7.5), 7.5);
  EXPECT_THROW(section->get_double("value", 0.0), IoError);
  EXPECT_THROW(section->get_int("value", 0), IoError);
}

TEST(Ini, MalformedLinesThrow) {
  EXPECT_THROW(ini_parse("[unclosed\n"), IoError);
  EXPECT_THROW(ini_parse("stray line without equals\n"), IoError);
}

TEST(Ini, MissingFileThrows) {
  EXPECT_THROW(ini_parse_file("/nonexistent/scenario.ini"), IoError);
}

constexpr const char* kCaseStudy = R"(
[plan]
target_loss = 0.01
vms_per_server = 2

[service]
name = web
dedicated_servers = 3
disk_rate = 420
disk_impact = 0.8
cpu_rate = 3360
cpu_impact = 0.65

[service]
name = db
dedicated_servers = 3
cpu_rate = 100
cpu_impact = 0.9
)";

TEST(Scenario, CaseStudyRoundTripsTheHeadlineResult) {
  const core::ModelInputs inputs =
      core::scenario_inputs(ini_parse(kCaseStudy));
  ASSERT_EQ(inputs.services.size(), 2u);
  EXPECT_EQ(inputs.services[0].name, "web");
  EXPECT_DOUBLE_EQ(inputs.services[0].native_rates[dc::Resource::kDiskIo],
                   420.0);
  const core::ModelResult result =
      core::UtilityAnalyticModel(inputs).solve();
  EXPECT_EQ(result.dedicated_servers, 6u);
  EXPECT_EQ(result.consolidated_servers, 3u);
}

TEST(Scenario, ExplicitArrivalRateWins) {
  const core::ModelInputs inputs = core::scenario_inputs(ini_parse(
      "[service]\nname = s\narrival_rate = 55\ncpu_rate = 100\n"));
  EXPECT_DOUBLE_EQ(inputs.services[0].arrival_rate, 55.0);
  EXPECT_DOUBLE_EQ(inputs.target_loss, 0.01);  // default without [plan]
}

TEST(Scenario, PlannerPicksUpInventory) {
  const std::string text =
      std::string(kCaseStudy) + "\n[class.big]\ncapacity = 1.0\ncount = 4\n";
  const core::ConsolidationPlanner planner =
      core::scenario_planner(ini_parse(text));
  const core::PlanReport report = planner.plan();
  const core::FleetPlan& plan = report.model.fleet;
  ASSERT_TRUE(plan.planned);
  EXPECT_TRUE(plan.consolidated_feasible);
  ASSERT_EQ(plan.classes.size(), 1u);
  EXPECT_EQ(plan.classes[0].name, "big");
  EXPECT_EQ(plan.classes[0].consolidated_servers,
            report.model.consolidated_servers);
}

TEST(Scenario, ServerClassSectionIsRefusedNamingItsReplacement) {
  // The retired inventory section, including the `available = -1` that once
  // wrapped to 4294967295 servers: refused by both entry points, pointing
  // at the [class.<name>] keys that replace it.
  const std::string text = std::string(kCaseStudy) +
                           "\n[server_class]\nname = tiny\ncapacity = 0.01\n"
                           "available = -1\n";
  for (const bool planner : {false, true}) {
    try {
      if (planner) {
        core::scenario_planner(ini_parse(text));
      } else {
        core::scenario_inputs(ini_parse(text));
      }
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("[server_class]"), std::string::npos) << what;
      EXPECT_NE(what.find("[class.<name>]"), std::string::npos) << what;
      EXPECT_NE(what.find("count"), std::string::npos) << what;
    }
  }
}

TEST(Ini, OutOfRangeIntegersAreRefused) {
  const IniDocument document = ini_parse(
      "[s]\nbig = 9223372036854775808\nsmall = -9223372036854775809\n"
      "max = 9223372036854775807\n");
  const IniSection* section = document.first("s");
  EXPECT_THROW(section->get_int("big", 0), IoError);
  EXPECT_THROW(section->get_int("small", 0), IoError);
  EXPECT_EQ(section->get_int("max", 0), 9223372036854775807LL);
  // The same refusal reaches a class count that does not fit.
  EXPECT_THROW(core::scenario_inputs(ini_parse(
                   "[class.huge]\ncount = 99999999999999999999\n"
                   "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n")),
               IoError);
}

TEST(Scenario, OutOfRangeRatesAreRefusedNotPlanned) {
  // strtod reads 1e-400 as 0 (which dropped the disk demand) and 1e400 as
  // inf; both must stop the file from planning, naming section and key.
  for (const char* value : {"1e-400", "1e400"}) {
    const std::string path = ::testing::TempDir() + "out_of_range_rate.ini";
    {
      std::ofstream file(path);
      file << "[service]\nname = web\narrival_rate = 50\ncpu_rate = 100\n"
              "disk_rate = "
           << value << "\n";
    }
    try {
      core::load_scenario(path).plan();
      FAIL() << "planned a scenario with disk_rate = " << value;
    } catch (const IoError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("[service] disk_rate"), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
    std::remove(path.c_str());
  }
}

TEST(Scenario, VmsPerServerMustFitUnsigned) {
  const std::string service =
      "\n[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n";
  // 2^32 + 2 once wrapped to 2; -5 and 0 were silently ignored.
  for (const char* value : {"4294967298", "-5", "0"}) {
    try {
      core::scenario_inputs(ini_parse(std::string("[plan]\nvms_per_server = ") +
                                      value + service));
      FAIL() << "expected InvalidArgument for " << value;
    } catch (const InvalidArgument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(std::string("vms_per_server = ") + value),
                std::string::npos)
          << what;
    }
  }
  const core::ModelInputs widest = core::scenario_inputs(
      ini_parse("[plan]\nvms_per_server = 4294967295" + service));
  EXPECT_EQ(widest.vms_per_server, 4294967295u);
}

TEST(Scenario, InputsThatWouldHangTheSolverAreRefusedFast) {
  const auto refused_within_a_second = [](const std::string& text,
                                          const char* expected) {
    const auto start = std::chrono::steady_clock::now();
    try {
      core::scenario_inputs(ini_parse(text));
      ADD_FAILURE() << "expected InvalidArgument for:\n" << text;
    } catch (const InvalidArgument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(expected), std::string::npos) << what;
      EXPECT_NE(what.find("kMaxScenarioLoad"), std::string::npos) << what;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
  };
  // Erlang-B inversion by bisection over 1e11 servers.
  refused_within_a_second(
      "[service]\nname = s\ndedicated_servers = 100000000000\n"
      "cpu_rate = 100\n",
      "dedicated_servers = 100000000000");
  // The bound is on the scenario's total, checked before each inversion.
  refused_within_a_second(
      "[service]\nname = a\ndedicated_servers = 1\ncpu_rate = 100\n"
      "[service]\nname = b\ndedicated_servers = 1000000\ndisk_rate = 100\n",
      "total to 1000001");
  // A staffing walk over an offered load of 1e13.
  refused_within_a_second(
      "[service]\nname = s\narrival_rate = 1e15\ncpu_rate = 100\n",
      "offered load on cpu to");
  // The bound is on the consolidated load: two services that each fit can
  // still overflow one shared resource, and a low impact factor scales it.
  refused_within_a_second(
      "[service]\nname = a\narrival_rate = 6e7\ncpu_rate = 100\n"
      "[service]\nname = b\narrival_rate = 6e7\ncpu_rate = 100\n",
      "offered load on cpu to");
  refused_within_a_second(
      "[service]\nname = s\narrival_rate = 2e6\ncpu_rate = 100\n"
      "cpu_impact = 0.01\n",
      "offered load on cpu to");

  // At the bound itself the scenario loads and plans.
  const core::ModelInputs at_bound = core::scenario_inputs(ini_parse(
      "[service]\nname = s\narrival_rate = 1e8\ncpu_rate = 100\n"));
  EXPECT_GT(core::UtilityAnalyticModel(at_bound).solve().consolidated_servers,
            0u);
}

TEST(Scenario, ValidatesServiceDeclarations) {
  EXPECT_THROW(core::scenario_inputs(ini_parse("[plan]\ntarget_loss = 0.01\n")),
               InvalidArgument);  // no services
  EXPECT_THROW(
      core::scenario_inputs(ini_parse("[service]\nname = s\ncpu_rate = 10\n")),
      InvalidArgument);  // neither arrival_rate nor dedicated_servers
  EXPECT_THROW(core::scenario_inputs(ini_parse(
                   "[service]\nname = s\narrival_rate = 5\n")),
               InvalidArgument);  // no resource rates
  EXPECT_THROW(core::scenario_inputs(ini_parse(
                   "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n"
                   "cpu_impact = 1.5\n")),
               InvalidArgument);  // impact out of range
}

TEST(Scenario, ValidationErrorsNameTheServiceFieldAndValue) {
  // Impact out of range: the message must identify which service, which
  // key, and what value was rejected.
  try {
    core::scenario_inputs(ini_parse(
        "[service]\nname = web\narrival_rate = 5\ncpu_rate = 10\n"
        "cpu_impact = 1.5\n"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("service 'web'"), std::string::npos) << what;
    EXPECT_NE(what.find("cpu_impact"), std::string::npos) << what;
    EXPECT_NE(what.find("1.5"), std::string::npos) << what;
    EXPECT_NE(what.find("(0, 1]"), std::string::npos) << what;
  }

  // Negative rates are rejected loudly instead of being silently treated
  // as "no demand".
  try {
    core::scenario_inputs(ini_parse(
        "[service]\nname = db\narrival_rate = 5\ndisk_rate = -3\n"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("service 'db'"), std::string::npos) << what;
    EXPECT_NE(what.find("disk_rate"), std::string::npos) << what;
    EXPECT_NE(what.find("-3"), std::string::npos) << what;
  }

  // A negative arrival rate is reported with its value, not just the
  // generic "set arrival_rate or dedicated_servers".
  try {
    core::scenario_inputs(ini_parse(
        "[service]\nname = s\narrival_rate = -5\ncpu_rate = 10\n"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("service 's'"), std::string::npos) << what;
    EXPECT_NE(what.find("arrival_rate = -5"), std::string::npos) << what;
  }

  // A service with no demand lists the keys that would declare one.
  try {
    core::scenario_inputs(
        ini_parse("[service]\nname = ghost\narrival_rate = 5\n"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("service 'ghost'"), std::string::npos) << what;
    EXPECT_NE(what.find("cpu_rate"), std::string::npos) << what;
  }
}

TEST(Scenario, RejectsNonFiniteValues) {
  // NaN/inf parse fine through strtod, so the loader must reject them
  // explicitly — they would otherwise sail through every range check whose
  // comparison is simply false for NaN.
  try {
    core::scenario_inputs(ini_parse(
        "[service]\nname = web\narrival_rate = inf\ncpu_rate = 10\n"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("service 'web'"), std::string::npos) << what;
    EXPECT_NE(what.find("arrival_rate"), std::string::npos) << what;
    EXPECT_NE(what.find("must be finite"), std::string::npos) << what;
  }
  try {
    core::scenario_inputs(ini_parse(
        "[service]\nname = web\narrival_rate = 5\ncpu_rate = nan\n"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("cpu_rate"), std::string::npos) << what;
    EXPECT_NE(what.find("must be finite"), std::string::npos) << what;
  }
  EXPECT_THROW(core::scenario_inputs(ini_parse(
                   "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n"
                   "cpu_impact = inf\n")),
               InvalidArgument);
  EXPECT_THROW(core::scenario_inputs(ini_parse(
                   "[plan]\ntarget_loss = nan\n"
                   "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n")),
               InvalidArgument);
}

TEST(Scenario, PowerSectionAppliesAndValidates) {
  const core::ModelInputs tuned = core::scenario_inputs(ini_parse(
      "[power]\nbase_watts = 180\nmax_watts = 240\n"
      "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n"));
  EXPECT_DOUBLE_EQ(tuned.dedicated_power.base_watts, 180.0);
  EXPECT_DOUBLE_EQ(tuned.dedicated_power.max_watts, 240.0);
  EXPECT_DOUBLE_EQ(tuned.consolidated_power.base_watts, 180.0);
  // Platform deltas stay with the deployment, not the [power] section.
  EXPECT_EQ(tuned.dedicated_power.platform, dc::Platform::kNativeLinux);
  EXPECT_EQ(tuned.consolidated_power.platform, dc::Platform::kXen);

  const char* kService =
      "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n";
  try {
    core::scenario_inputs(
        ini_parse(std::string("[power]\nbase_watts = inf\n") + kService));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("[power]"), std::string::npos) << what;
    EXPECT_NE(what.find("base_watts"), std::string::npos) << what;
    EXPECT_NE(what.find("must be finite"), std::string::npos) << what;
  }
  EXPECT_THROW(core::scenario_inputs(ini_parse(
                   std::string("[power]\nmax_watts = nan\n") + kService)),
               InvalidArgument);
  EXPECT_THROW(core::scenario_inputs(ini_parse(
                   std::string("[power]\nbase_watts = -5\n") + kService)),
               InvalidArgument);
  EXPECT_THROW(core::scenario_inputs(
                   ini_parse(std::string("[power]\nbase_watts = 300\n"
                                         "max_watts = 200\n") +
                             kService)),
               InvalidArgument);
}

TEST(Scenario, PowerMaxBelowBaseNamesBothFields) {
  // A busy-draw below idle draw is always a typo; the rejection must name
  // the offending key, its value, and the field it is compared against —
  // not just say "bad power model".
  try {
    core::scenario_inputs(ini_parse(
        "[power]\nbase_watts = 300\nmax_watts = 200\n"
        "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("[power]"), std::string::npos) << what;
    EXPECT_NE(what.find("max_watts = 200"), std::string::npos) << what;
    EXPECT_NE(what.find("base_watts"), std::string::npos) << what;
  }
}

TEST(Scenario, ClassSectionsParseIntoAFleet) {
  const core::ModelInputs inputs = core::scenario_inputs(ini_parse(
      "[class.old-gen]\n"
      "capacity = 1.0\n"
      "count = 40\n"
      "[class.new-gen]\n"
      "capacity = 2.0\n"
      "disk_capacity = 1.5\n"
      "base_watts = 180\n"
      "max_watts = 260\n"
      "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n"));
  ASSERT_EQ(inputs.fleet.size(), 2u);
  const dc::ServerClass& old_gen = inputs.fleet.at(0);
  EXPECT_EQ(old_gen.name, "old-gen");
  EXPECT_EQ(old_gen.count, 40u);  // bounded
  EXPECT_DOUBLE_EQ(old_gen.speed(), 1.0);
  const dc::ServerClass& new_gen = inputs.fleet.at(1);
  EXPECT_EQ(new_gen.name, "new-gen");
  EXPECT_EQ(new_gen.count, dc::ServerClass::kUnbounded);  // no count key
  EXPECT_DOUBLE_EQ(new_gen.capacity[dc::Resource::kCpu], 2.0);
  EXPECT_DOUBLE_EQ(new_gen.capacity[dc::Resource::kDiskIo], 1.5);
  EXPECT_DOUBLE_EQ(new_gen.speed(), 1.5);  // min over resources
  EXPECT_DOUBLE_EQ(new_gen.power.base_watts, 180.0);
  EXPECT_DOUBLE_EQ(new_gen.power.max_watts, 260.0);

  // The fleet reaches the model: the plan carries a per-class allocation.
  const core::ModelResult result =
      core::UtilityAnalyticModel(inputs).solve();
  ASSERT_TRUE(result.fleet.planned);
  ASSERT_EQ(result.fleet.classes.size(), 2u);
}

TEST(Scenario, ClassSectionFieldErrorsNameSectionKeyAndValue) {
  const char* kService =
      "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n";
  try {
    core::scenario_inputs(ini_parse(
        std::string("[class.slow]\ncpu_capacity = -1\n") + kService));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("[class.slow]"), std::string::npos) << what;
    EXPECT_NE(what.find("cpu_capacity"), std::string::npos) << what;
    EXPECT_NE(what.find("-1"), std::string::npos) << what;
  }
  try {
    core::scenario_inputs(ini_parse(
        std::string("[class.hot]\nbase_watts = 300\nmax_watts = 250\n") +
        kService));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("[class.hot]"), std::string::npos) << what;
    EXPECT_NE(what.find("max_watts"), std::string::npos) << what;
    EXPECT_NE(what.find("base_watts"), std::string::npos) << what;
  }
  try {
    core::scenario_inputs(ini_parse(
        std::string("[class.some]\ncount = -2\n") + kService));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("count = -2"), std::string::npos) << what;
    EXPECT_NE(what.find("unbounded"), std::string::npos) << what;
  }
  // A bare "[class.]" header has no class name to report by.
  EXPECT_THROW(core::scenario_inputs(
                   ini_parse(std::string("[class.]\ncapacity = 1\n") +
                             kService)),
               InvalidArgument);
  // Duplicate class names are rejected by Fleet::add.
  EXPECT_THROW(core::scenario_inputs(ini_parse(
                   std::string("[class.twin]\ncapacity = 1\n"
                               "[class.twin]\ncapacity = 2\n") +
                   kService)),
               InvalidArgument);
}

TEST(Scenario, ClassSectionsRoundTripThroughIni) {
  const core::ModelInputs original = core::scenario_inputs(ini_parse(
      "[class.old-gen]\ncapacity = 1.0\ncount = 12\n"
      "[class.new-gen]\ncapacity = 2.25\nbase_watts = 200\n"
      "max_watts = 310\n"
      "[service]\nname = s\narrival_rate = 5\ncpu_rate = 10\n"));
  const core::ModelInputs reparsed =
      core::scenario_inputs(ini_parse(core::scenario_to_ini(original)));
  ASSERT_EQ(reparsed.fleet.size(), original.fleet.size());
  for (std::size_t i = 0; i < original.fleet.size(); ++i) {
    const dc::ServerClass& a = original.fleet.at(i);
    const dc::ServerClass& b = reparsed.fleet.at(i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.count, b.count);
    EXPECT_NEAR(a.power.base_watts, b.power.base_watts, 1e-9);
    EXPECT_NEAR(a.power.max_watts, b.power.max_watts, 1e-9);
    for (const dc::Resource resource : dc::all_resources()) {
      EXPECT_NEAR(a.capacity[resource], b.capacity[resource], 1e-9);
    }
  }
}

TEST(Scenario, SerializationRoundTrips) {
  const core::ModelInputs original =
      core::scenario_inputs(ini_parse(kCaseStudy));
  const std::string text = core::scenario_to_ini(original);
  const core::ModelInputs reparsed = core::scenario_inputs(ini_parse(text));
  ASSERT_EQ(reparsed.services.size(), original.services.size());
  for (std::size_t i = 0; i < original.services.size(); ++i) {
    EXPECT_NEAR(reparsed.services[i].arrival_rate,
                original.services[i].arrival_rate, 1e-6);
    for (const dc::Resource resource : dc::all_resources()) {
      EXPECT_NEAR(reparsed.services[i].native_rates[resource],
                  original.services[i].native_rates[resource], 1e-9);
    }
  }
  // Same plan either way.
  EXPECT_EQ(core::UtilityAnalyticModel(reparsed).solve().consolidated_servers,
            core::UtilityAnalyticModel(original).solve().consolidated_servers);
}

}  // namespace
}  // namespace vmcons
