// Scenario spec parsing: round-trip, strict unknown-key rejection,
// validation, and the derived seed grid.
#include "exp/scenario.hpp"

#include <gtest/gtest.h>

namespace radiocast::exp {
namespace {

constexpr const char* kFullSpec = R"({
  "id": "t1",
  "title": "a title",
  "claim": "a claim",
  "mode": "kbroadcast",
  "topology": { "family": "geometric", "n": 32, "seed": 9, "radius": 0.4 },
  "knowledge": { "mode": "padded", "poly_power": 1.5, "d_factor": 2.0 },
  "placement": ["random", "spread_even"],
  "payload_bytes": 8,
  "algos": ["coded", "uncoded"],
  "k": [4, 16],
  "loss": [0.0, 0.1],
  "collision_detection": [false, true],
  "seeds": 2,
  "seed_base": 77,
  "max_rounds": 1000,
  "audit": true,
  "report": { "pivot": "algo", "values": ["r_per_pkt"], "ratio": "uncoded/coded:r_per_pkt" }
})";

TEST(Scenario, ParsesFullSpec) {
  const ScenarioSpec s = parse_scenario(kFullSpec);
  EXPECT_EQ(s.id, "t1");
  EXPECT_EQ(s.topology.family, "geometric");
  EXPECT_EQ(s.topology.n, 32u);
  EXPECT_DOUBLE_EQ(s.topology.radius, 0.4);
  EXPECT_EQ(s.knowledge.mode, "padded");
  EXPECT_EQ(s.placement, (std::vector<std::string>{"random", "spread_even"}));
  EXPECT_EQ(s.algos, (std::vector<std::string>{"coded", "uncoded"}));
  EXPECT_EQ(s.k, (std::vector<std::uint32_t>{4, 16}));
  EXPECT_EQ(s.loss, (std::vector<double>{0.0, 0.1}));
  EXPECT_EQ(s.collision_detection, (std::vector<bool>{false, true}));
  EXPECT_EQ(s.seeds, 2);
  EXPECT_EQ(s.seed_base, 77u);
  EXPECT_TRUE(s.audit);
  EXPECT_EQ(s.report.pivot, "algo");
  EXPECT_EQ(s.report.ratio, "uncoded/coded:r_per_pkt");
}

TEST(Scenario, RoundTripParseSerializeParse) {
  const ScenarioSpec s1 = parse_scenario(kFullSpec);
  const std::string canonical = serialize_scenario(s1);
  const ScenarioSpec s2 = parse_scenario(canonical);
  // The canonical form is a fixed point: serializing again is byte-equal.
  EXPECT_EQ(serialize_scenario(s2), canonical);
  EXPECT_EQ(scenario_to_json(s1), scenario_to_json(s2));
}

TEST(Scenario, MinimalSpecGetsDefaults) {
  const ScenarioSpec s = parse_scenario(R"({"id": "mini"})");
  EXPECT_EQ(s.mode, "kbroadcast");
  EXPECT_EQ(s.topology.family, "geometric");
  EXPECT_EQ(s.placement, std::vector<std::string>{"random"});
  EXPECT_EQ(s.algos, std::vector<std::string>{"coded"});
  EXPECT_EQ(s.k, std::vector<std::uint32_t>{16});
  EXPECT_EQ(s.seeds, 3);
  // Serialization materializes every default explicitly.
  const std::string canonical = serialize_scenario(s);
  EXPECT_NE(canonical.find("\"payload_bytes\": 16"), std::string::npos) << canonical;
}

TEST(Scenario, ScalarAxesPromoteToSingletonLists) {
  const ScenarioSpec s = parse_scenario(R"({"id": "x", "k": 8, "algos": "seq_bgi"})");
  EXPECT_EQ(s.k, std::vector<std::uint32_t>{8});
  EXPECT_EQ(s.algos, std::vector<std::string>{"seq_bgi"});
  const ScenarioSpec s2 = parse_scenario(R"({"id": "x", "loss": 0.05})");
  EXPECT_EQ(s2.loss, std::vector<double>{0.05});
}

TEST(Scenario, KnowledgeStringShorthand) {
  const ScenarioSpec s = parse_scenario(R"({"id": "x", "knowledge": "padded"})");
  EXPECT_EQ(s.knowledge.mode, "padded");
}

TEST(Scenario, RejectsUnknownTopLevelKey) {
  EXPECT_THROW(parse_scenario(R"({"id": "x", "kk": [4]})"), JsonError);
  // A spec that still names the removed `shards` key fails, not silently runs.
  EXPECT_THROW(parse_scenario(R"({"id":"x","shards":2})"), JsonError);
  try {
    parse_scenario(R"({"id": "x", "seed": 3})");  // typo for seed_base
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }
}

TEST(Scenario, RejectsUnknownNestedKeys) {
  EXPECT_THROW(parse_scenario(R"({"id":"x","topology":{"radius":0.3,"nn":4}})"),
               JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","knowledge":{"mode":"exact","pow":2}})"),
               JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","report":{"pivots":"algo"}})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","dynamic":{"loads":[1.0]}})"), JsonError);
}

TEST(Scenario, ValidationCatchesBadValues) {
  EXPECT_THROW(parse_scenario(R"({"id": ""})"), JsonError);           // id required
  EXPECT_THROW(parse_scenario(R"({"id": "a b"})"), JsonError);        // id charset
  EXPECT_THROW(parse_scenario(R"({"id":"x","mode":"warp"})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","algos":["quantum"]})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","placement":["center"]})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","k":[0]})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","loss":[1.5]})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","seeds":0})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","topology":{"family":"moebius"}})"),
               JsonError);
  // The benchmark-only `shards` field accepts nothing but 1.
  ScenarioSpec sharded = parse_scenario(R"({"id": "x"})");
  sharded.shards = 2;
  EXPECT_THROW(validate_scenario(sharded), JsonError);
}

TEST(Scenario, FaultAndAuditAxesRequirePipelineAlgos) {
  // seq_bgi/gossip run through run_algo, which has no fault/CD/audit taps;
  // silently dropping those axes would fabricate results.
  EXPECT_THROW(parse_scenario(R"({"id":"x","algos":["seq_bgi"],"loss":[0.1]})"),
               JsonError);
  EXPECT_THROW(
      parse_scenario(R"({"id":"x","algos":["gossip"],"collision_detection":[true]})"),
      JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","algos":["seq_bgi"],"audit":true})"),
               JsonError);
  // ...but the same axes are fine on the pipelines.
  EXPECT_NO_THROW(parse_scenario(R"({"id":"x","algos":["coded"],"loss":[0.1]})"));
}

TEST(Scenario, ThreadsIsExcludedFromCanonicalForm) {
  // threads is an execution knob: two runs differing only in thread budget
  // must produce identical spec digests.
  ScenarioSpec a = parse_scenario(R"({"id": "x"})");
  ScenarioSpec b = a;
  b.threads = 7;
  EXPECT_EQ(serialize_scenario(a), serialize_scenario(b));
}

TEST(Scenario, EngineKnobParsesValidatesAndSerializes) {
  // The key selects nothing (every run picks its sweep per round), but it
  // is still parsed, validated and digested. Default is scalar (every
  // historical spec digest was taken with it).
  EXPECT_EQ(parse_scenario(R"({"id": "x"})").engine, "scalar");
  EXPECT_EQ(parse_scenario(R"({"id":"x","engine":"bitset"})").engine, "bitset");
  EXPECT_THROW(parse_scenario(R"({"id":"x","engine":"vector"})"), JsonError);

  // engine IS part of the spec identity, unlike threads: flipping it must
  // change the canonical form (and therefore the digest).
  const ScenarioSpec scalar = parse_scenario(R"({"id": "x"})");
  const ScenarioSpec bitset = parse_scenario(R"({"id":"x","engine":"bitset"})");
  EXPECT_NE(serialize_scenario(scalar), serialize_scenario(bitset));
  EXPECT_EQ(parse_scenario(serialize_scenario(bitset)).engine, "bitset");
}

TEST(Scenario, EngineKeyIsAcceptedInEveryAlgoAndMode) {
  // Every Network picks its sweep per round, seq_bgi/gossip and the
  // open-system modes included, so "bitset" names nothing those runs lack.
  EXPECT_NO_THROW(parse_scenario(R"({"id":"x","algos":["seq_bgi"],"engine":"bitset"})"));
  EXPECT_NO_THROW(parse_scenario(R"({"id":"x","algos":["gossip"],"engine":"bitset"})"));
  EXPECT_NO_THROW(parse_scenario(
      R"({"id":"x","mode":"dynamic","dynamic":{"load":[0.5]},"engine":"bitset"})"));
  EXPECT_NO_THROW(parse_scenario(R"({"id":"x","mode":"stream","engine":"bitset"})"));
  EXPECT_NO_THROW(
      parse_scenario(R"({"id":"x","algos":["coded","uncoded"],"engine":"bitset"})"));
}

TEST(Scenario, SeedGridIsPureFunctionOfSeedBase) {
  const ScenarioSpec s = parse_scenario(R"({"id": "x", "seed_base": 1000})");
  // Formulas are pinned to the historical bench_util ones.
  EXPECT_EQ(placement_seed(s, 0), 1000u);
  EXPECT_EQ(placement_seed(s, 2), 1000u + 17u * 2u);
  EXPECT_EQ(run_seed(s, 3), 1000u + 1000u + 3u);
  EXPECT_EQ(fault_seed(s, 1), 1000u + 555u + 1u);
}

}  // namespace
}  // namespace radiocast::exp
