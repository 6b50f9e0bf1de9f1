// Golden scenario digests: runs checked-in scenarios end to end (as
// `radiocast run`, with `--audit` where "audit_flag" is set) and compares
// the manifest's results_digest and telemetry_digest with the values
// pinned in data/golden_digests.json. A change that moves a digest
// must re-pin it there, on purpose and in the same commit.
#include <gtest/gtest.h>

#include <string>

#include "cli/cli.hpp"
#include "exp/jsonval.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"

#ifndef RADIOCAST_TEST_DATA_DIR
#define RADIOCAST_TEST_DATA_DIR "tests/exp/data"
#endif
#ifndef RADIOCAST_SCENARIOS_DIR
#define RADIOCAST_SCENARIOS_DIR "scenarios"
#endif

namespace radiocast::exp {
namespace {

TEST(GoldenDigests, ScenarioDigestsMatchThePins) {
  const JsonValue pins = json_parse(
      cli::read_file(std::string(RADIOCAST_TEST_DATA_DIR) + "/golden_digests.json"));
  ASSERT_GT(pins.as_object().size(), 0u);
  for (const auto& [name, pin_value] : pins.as_object().members()) {
    SCOPED_TRACE(name);
    const JsonObject& pin = pin_value.as_object();
    ScenarioSpec spec = parse_scenario(cli::read_file(
        std::string(RADIOCAST_SCENARIOS_DIR) + "/" + pin.find("spec")->as_string()));
    if (pin.find("audit_flag")->as_bool()) spec.audit = true;  // as `run --audit`
    validate_scenario(spec);

    const ScenarioOutcome out = run_scenario(spec);
    const JsonObject& manifest = out.manifest.as_object();
    EXPECT_TRUE(out.audit_clean);
    EXPECT_EQ(manifest.find("results_digest")->as_string(),
              pin.find("results_digest")->as_string());
    EXPECT_EQ(manifest.find("telemetry_digest")->as_string(),
              pin.find("telemetry_digest")->as_string());
  }
}

}  // namespace
}  // namespace radiocast::exp
