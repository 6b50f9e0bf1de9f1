// Manifest reproducibility: the deterministic section of a manifest (and
// the whole results document) must be byte-identical across repeated runs
// and across thread budgets; only the environment block may vary.
#include "exp/manifest.hpp"

#include <gtest/gtest.h>

#include "exp/run.hpp"
#include "exp/scenario.hpp"

namespace radiocast::exp {
namespace {

ScenarioSpec tiny_spec() {
  return parse_scenario(R"({
    "id": "tiny",
    "topology": { "family": "geometric", "n": 16, "seed": 5, "radius": 0.5 },
    "algos": ["coded", "seq_bgi"],
    "k": [4],
    "seeds": 2,
    "seed_base": 42
  })");
}

/// The manifest with its environment block blanked — everything that is
/// covered by manifest_digest.
std::string deterministic_part(const JsonValue& manifest) {
  JsonValue copy = manifest;
  JsonValue* env = copy.as_object().find("environment");
  if (env != nullptr) *env = JsonValue();
  return json_serialize(copy);
}

TEST(Manifest, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(digest_string("foobar"), "fnv1a64:85944171f73967e8");
}

TEST(Manifest, DigestIgnoresEnvironment) {
  const ScenarioSpec spec = tiny_spec();
  ScenarioOutcome a = run_scenario(spec);
  // Mutating the environment block must not change the recorded digest's
  // validity: the digest is computed before the environment is appended.
  JsonValue* env = a.manifest.as_object().find("environment");
  ASSERT_NE(env, nullptr);
  env->as_object().set("timestamp_utc", "2026-01-01T00:00:00Z");
  const ScenarioOutcome b = run_scenario(spec);
  EXPECT_EQ(manifest_digest(a.manifest), manifest_digest(b.manifest));
}

TEST(Manifest, RepeatedRunsAreByteIdentical) {
  const ScenarioSpec spec = tiny_spec();
  const ScenarioOutcome a = run_scenario(spec);
  const ScenarioOutcome b = run_scenario(spec);
  EXPECT_EQ(json_serialize(a.results), json_serialize(b.results));
  EXPECT_EQ(deterministic_part(a.manifest), deterministic_part(b.manifest));
}

TEST(Manifest, ThreadBudgetDoesNotPerturbResults) {
  ScenarioSpec spec = tiny_spec();
  spec.threads = 1;
  const ScenarioOutcome seq = run_scenario(spec);
  spec.threads = 4;
  const ScenarioOutcome par = run_scenario(spec);
  EXPECT_EQ(json_serialize(seq.results), json_serialize(par.results));
  EXPECT_EQ(manifest_digest(seq.manifest), manifest_digest(par.manifest));
}

TEST(Manifest, SeedBaseChangesTrialDigests) {
  ScenarioSpec spec = tiny_spec();
  const ScenarioOutcome a = run_scenario(spec);
  spec.seed_base = 43;
  const ScenarioOutcome b = run_scenario(spec);
  EXPECT_NE(manifest_digest(a.manifest), manifest_digest(b.manifest));
}

TEST(Manifest, RecordsSeedGridAndPerTrialDigests) {
  const ScenarioSpec spec = tiny_spec();
  const ScenarioOutcome out = run_scenario(spec);
  const JsonObject& m = out.manifest.as_object();
  EXPECT_EQ(m.find("format")->as_string(), "radiocast-manifest-v1");

  const JsonObject& grid = m.find("seed_grid")->as_object();
  EXPECT_EQ(grid.find("placement_seeds")->as_array().size(), 2u);
  EXPECT_EQ(grid.find("placement_seeds")->as_array()[0].as_uint(), 42u);
  EXPECT_EQ(grid.find("run_seeds")->as_array()[1].as_uint(), 42u + 1000u + 1u);

  const auto& cells = m.find("cells")->as_array();
  ASSERT_EQ(cells.size(), 2u);  // 2 algos x 1 k
  for (const JsonValue& cell : cells) {
    const auto& digests = cell.as_object().find("trial_digests")->as_array();
    ASSERT_EQ(digests.size(), 2u);
    for (const JsonValue& d : digests)
      EXPECT_EQ(d.as_string().rfind("fnv1a64:", 0), 0u) << d.as_string();
  }
}

TEST(Manifest, BuildInfoIsPopulated) {
  const BuildInfo b = build_info();
  EXPECT_FALSE(b.git_describe.empty());
  EXPECT_FALSE(b.compiler.empty());
}

TEST(Manifest, SpecDigestMatchesEmbeddedScenario) {
  const ScenarioSpec spec = tiny_spec();
  const ScenarioOutcome out = run_scenario(spec);
  const JsonObject& m = out.manifest.as_object();
  // The recorded spec_digest is recomputable from the embedded scenario.
  EXPECT_EQ(m.find("spec_digest")->as_string(),
            digest_json(*m.find("scenario")));
  EXPECT_EQ(m.find("spec_digest")->as_string(), digest_json(scenario_to_json(spec)));
}

}  // namespace
}  // namespace radiocast::exp
