#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include "core/params.hpp"

namespace radiocast::core {
namespace {

radio::Knowledge small_know() {
  radio::Knowledge k;
  k.n_hat = 64;
  k.delta_hat = 8;
  k.d_hat = 6;
  return k;
}

TEST(Schedule, OspgWindowMatchesPaperFormula) {
  // OSPG(y) = (6y + D) + (3(6y + D) + D) = 24y + 5D rounds.
  for (std::uint64_t y : {1ULL, 10ULL, 100ULL, 12345ULL}) {
    for (std::uint32_t d : {1u, 5u, 40u}) {
      const GatherWindow w = ospg_window(y, d);
      EXPECT_EQ(w.slots, 6 * y);
      EXPECT_EQ(w.up_rounds, 6 * y + d);
      EXPECT_EQ(w.ack_rounds, 3 * (6 * y + d) + d);
      EXPECT_EQ(w.total_rounds(), 24 * y + 5 * d);
      EXPECT_EQ(w.copies, 1u);
    }
  }
}

TEST(Schedule, MspgWindowUsesSquaredEstimate) {
  KBroadcastConfig cfg;
  cfg.know = small_know();
  cfg.grab_c = 3;
  const ResolvedConfig rc = resolve(cfg);
  const GatherWindow w = mspg_window(rc);
  EXPECT_EQ(rc.c_log_n, 3u * 6);  // c * log n = 3 * log2(64)
  EXPECT_EQ(w.slots, 6 * rc.c_log_n * rc.c_log_n);
  EXPECT_EQ(w.copies, rc.c_log_n);
}

TEST(Schedule, GrabCascadeHalvesDownToFloor) {
  KBroadcastConfig cfg;
  cfg.know = small_know();
  const ResolvedConfig rc = resolve(cfg);
  const std::uint64_t x = 1000;
  const auto windows = grab_windows(x, rc);
  ASSERT_GE(windows.size(), 3u);
  // First window covers x, each next halves (floored at c log n), the last
  // gather window before MSPG sits exactly at the floor.
  EXPECT_EQ(windows[0].slots, 6 * x);
  for (std::size_t i = 1; i + 1 < windows.size(); ++i) {
    EXPECT_EQ(windows[i].slots,
              6 * std::max(windows[i - 1].slots / 6 / 2, rc.c_log_n));
  }
  EXPECT_EQ(windows[windows.size() - 2].slots, 6 * rc.c_log_n);
  // MSPG last.
  EXPECT_GT(windows.back().copies, 1u);
  // Offsets are contiguous.
  std::uint64_t offset = 0;
  for (const auto& w : windows) {
    EXPECT_EQ(w.start, offset);
    offset += w.total_rounds();
  }
  EXPECT_EQ(grab_rounds(x, rc), offset);
}

TEST(Schedule, GrabWithTinyEstimateStillHasFloorAndMspg) {
  KBroadcastConfig cfg;
  cfg.know = small_know();
  const ResolvedConfig rc = resolve(cfg);
  const auto windows = grab_windows(1, rc);
  ASSERT_EQ(windows.size(), 2u);  // floor OSPG + MSPG
  EXPECT_EQ(windows[0].slots, 6 * rc.c_log_n);
}

TEST(Schedule, GrabLengthIsLinearPlusLogTerms) {
  // GRAB(x) = O(x + D log x + log^2 n): doubling x roughly doubles the
  // length once x dominates.
  KBroadcastConfig cfg;
  cfg.know = small_know();
  const ResolvedConfig rc = resolve(cfg);
  const std::uint64_t big = 1 << 16;
  const double r1 = static_cast<double>(grab_rounds(big, rc));
  const double r2 = static_cast<double>(grab_rounds(2 * big, rc));
  EXPECT_GT(r2 / r1, 1.7);
  EXPECT_LT(r2 / r1, 2.3);
}

TEST(Schedule, CollectionPhaseAddsAlarm) {
  KBroadcastConfig cfg;
  cfg.know = small_know();
  const ResolvedConfig rc = resolve(cfg);
  EXPECT_EQ(collection_phase_rounds(100, rc), grab_rounds(100, rc) + rc.alarm_rounds);
}

TEST(Schedule, CollectionBoundCoversDoubling) {
  KBroadcastConfig cfg;
  cfg.know = small_know();
  const ResolvedConfig rc = resolve(cfg);
  // The bound for larger k is at least the bound for smaller k and grows
  // roughly linearly for k >> x0.
  EXPECT_LE(collection_rounds_bound(10, rc), collection_rounds_bound(1000, rc));
  const double b1 = static_cast<double>(collection_rounds_bound(1 << 16, rc));
  const double b2 = static_cast<double>(collection_rounds_bound(1 << 17, rc));
  EXPECT_GT(b2 / b1, 1.5);
  EXPECT_LT(b2 / b1, 2.6);
}

TEST(Schedule, DisseminationBoundScalesWithGroups) {
  KBroadcastConfig cfg;
  cfg.know = small_know();
  const ResolvedConfig rc = resolve(cfg);
  const std::uint64_t one_group = dissemination_rounds_bound(rc.group_size, rc);
  const std::uint64_t ten_groups = dissemination_rounds_bound(10 * rc.group_size, rc);
  EXPECT_GT(ten_groups, one_group);
  // Spacing * 9 extra groups of phases.
  EXPECT_EQ(ten_groups - one_group,
            9ull * rc.group_spacing * rc.dissem_phase_rounds);
}

TEST(Params, ResolveDefaults) {
  KBroadcastConfig cfg;
  cfg.know = small_know();
  const ResolvedConfig rc = resolve(cfg);
  EXPECT_EQ(rc.log_n, 6u);
  EXPECT_EQ(rc.log_delta, 3u);
  EXPECT_EQ(rc.leader_probes, 6u);
  EXPECT_EQ(rc.group_size, rc.log_n);
  EXPECT_EQ(rc.group_spacing, 3u);
  EXPECT_TRUE(rc.coded);
  EXPECT_EQ(rc.initial_estimate, (6ull + 6) * 6);
  EXPECT_EQ(rc.stage1_rounds,
            static_cast<std::uint64_t>(rc.leader_probes) * rc.leader_probe_epochs *
                rc.log_delta);
  EXPECT_EQ(rc.stage2_rounds,
            static_cast<std::uint64_t>(rc.bfs_phases) * rc.bfs_phase_rounds);
  EXPECT_EQ(rc.stage3_start(), rc.stage1_rounds + rc.stage2_rounds);
  EXPECT_GE(rc.dissem_phase_rounds, rc.group_size);
}

TEST(Params, ExplicitOverridesRespected) {
  KBroadcastConfig cfg;
  cfg.know = small_know();
  cfg.group_size = 4;
  cfg.forward_epochs = 7;
  cfg.group_spacing = 5;
  cfg.coded = false;
  cfg.alarm_epochs = 9;
  const ResolvedConfig rc = resolve(cfg);
  EXPECT_EQ(rc.group_size, 4u);
  EXPECT_EQ(rc.forward_epochs, 7u);
  EXPECT_EQ(rc.group_spacing, 5u);
  EXPECT_FALSE(rc.coded);
  EXPECT_EQ(rc.alarm_epochs, 9u);
  EXPECT_EQ(rc.alarm_rounds, 9ull * rc.log_delta);
}

// A packet is addressed by its bit in one uint64 word (the coded
// coefficient header, the decoder's unit rows), so a group wider than 64
// must be refused up front for both pipelines instead of sending truncated
// headers that abort the run at the first reception.
TEST(ParamsDeathTest, GroupWiderThanOneHeaderWordAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  KBroadcastConfig cfg;
  cfg.know = small_know();
  cfg.group_size = 64;
  EXPECT_EQ(resolve(cfg).group_size, 64u);
  cfg.group_size = 65;
  for (const bool coded : {true, false}) {
    cfg.coded = coded;
    EXPECT_DEATH((void)resolve(cfg), "coefficient header is one 64-bit word");
  }
}

}  // namespace
}  // namespace radiocast::core
