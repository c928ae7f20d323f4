#include "virt/mechanisms.hpp"

#include <gtest/gtest.h>

namespace spothost::virt {
namespace {

VmSpec small_spec() {
  VmSpec s;
  s.memory_gb = 1.7;
  s.disk_gb = 8.0;
  s.dirty_rate_mb_s = 20.0;
  s.working_set_mb = 435.0;
  return s;
}

MigrationPlanner planner(MechanismCombo combo,
                         MechanismParams params = typical_mechanism_params()) {
  return MigrationPlanner(combo, params, NetworkModel{});
}

TEST(Mechanisms, ComboPredicates) {
  EXPECT_FALSE(uses_live_migration(MechanismCombo::kCkpt));
  EXPECT_FALSE(uses_live_migration(MechanismCombo::kCkptLazy));
  EXPECT_TRUE(uses_live_migration(MechanismCombo::kCkptLive));
  EXPECT_TRUE(uses_live_migration(MechanismCombo::kCkptLazyLive));
  EXPECT_FALSE(uses_lazy_restore(MechanismCombo::kCkpt));
  EXPECT_TRUE(uses_lazy_restore(MechanismCombo::kCkptLazy));
  EXPECT_FALSE(uses_lazy_restore(MechanismCombo::kCkptLive));
  EXPECT_TRUE(uses_lazy_restore(MechanismCombo::kCkptLazyLive));
}

TEST(Mechanisms, Names) {
  EXPECT_EQ(to_string(MechanismCombo::kCkpt), "CKPT");
  EXPECT_EQ(to_string(MechanismCombo::kCkptLazyLive), "CKPT LR + Live");
  EXPECT_EQ(to_string(MigrationClass::kForced), "forced");
  EXPECT_EQ(to_string(MigrationClass::kReverse), "reverse");
}

TEST(Mechanisms, ForcedNeverUsesLiveMigration) {
  // Forced timings with and without live in the combo must agree: the source
  // disappears, so only the checkpoint path exists.
  const auto a = planner(MechanismCombo::kCkpt)
                     .plan(MigrationClass::kForced, small_spec(), "us-east-1a",
                           "us-east-1a");
  const auto b = planner(MechanismCombo::kCkptLive)
                     .plan(MigrationClass::kForced, small_spec(), "us-east-1a",
                           "us-east-1a");
  EXPECT_DOUBLE_EQ(a.flush_s, b.flush_s);
  EXPECT_DOUBLE_EQ(a.restore_s, b.restore_s);
}

TEST(Mechanisms, ForcedFlushWithinGraceBudget) {
  // Tight to loose bounds around the typical 10 s; 30 s is the pessimistic.
  for (const double tau : {2.0, 5.0, 10.0, 30.0}) {
    auto params = typical_mechanism_params();
    params.checkpoint.bound_tau_s = tau;
    for (const auto combo : kAllCombos) {
      const auto t = planner(combo, params).plan(
          MigrationClass::kForced, small_spec(), "us-east-1a", "us-east-1a");
      EXPECT_LE(t.flush_s, tau + 1e-9) << "tau=" << tau;
      EXPECT_GT(t.restore_s, 0.0) << "tau=" << tau;
    }
  }
}

TEST(Mechanisms, LazyRestoreCutsForcedDowntime) {
  const auto full = planner(MechanismCombo::kCkpt)
                        .plan(MigrationClass::kForced, small_spec(), "us-east-1a",
                              "us-east-1a");
  const auto lazy = planner(MechanismCombo::kCkptLazy)
                        .plan(MigrationClass::kForced, small_spec(), "us-east-1a",
                              "us-east-1a");
  EXPECT_LT(lazy.restore_s, full.restore_s);
  EXPECT_GT(lazy.degraded_s, 0.0);
  EXPECT_DOUBLE_EQ(full.degraded_s, 0.0);
}

TEST(Mechanisms, LiveCombosHaveTinyVoluntaryDowntime) {
  const auto live = planner(MechanismCombo::kCkptLazyLive)
                        .plan(MigrationClass::kPlanned, small_spec(), "us-east-1a",
                              "us-east-1a");
  const auto suspend = planner(MechanismCombo::kCkptLazy)
                           .plan(MigrationClass::kPlanned, small_spec(),
                                 "us-east-1a", "us-east-1a");
  EXPECT_LT(live.downtime_s, 2.0);
  EXPECT_GT(suspend.downtime_s, 10.0);  // flush + lazy resume
  EXPECT_GT(live.prepare_s, 30.0);      // pre-copy rounds run while up
}

TEST(Mechanisms, CrossFamilyPlannedIncludesDiskCopy) {
  const auto lan = planner(MechanismCombo::kCkptLazyLive)
                       .plan(MigrationClass::kPlanned, small_spec(), "us-east-1a",
                             "us-east-1a");
  const auto wan = planner(MechanismCombo::kCkptLazyLive)
                       .plan(MigrationClass::kPlanned, small_spec(), "us-east-1a",
                             "eu-west-1a");
  // 8 GB disk at ~7.3 MB/s adds ~19 minutes of preparation.
  EXPECT_GT(wan.prepare_s, lan.prepare_s + 1000.0);
  EXPECT_GT(wan.downtime_s, lan.downtime_s);  // WAN switch penalty
}

TEST(Mechanisms, ReverseAndPlannedSymmetricOnLan) {
  const auto p = planner(MechanismCombo::kCkptLazyLive);
  const auto planned =
      p.plan(MigrationClass::kPlanned, small_spec(), "us-east-1a", "us-east-1a");
  const auto reverse =
      p.plan(MigrationClass::kReverse, small_spec(), "us-east-1a", "us-east-1a");
  EXPECT_DOUBLE_EQ(planned.downtime_s, reverse.downtime_s);
  EXPECT_DOUBLE_EQ(planned.prepare_s, reverse.prepare_s);
}

TEST(Mechanisms, PessimisticParamsAreUniformlyWorse) {
  const auto typ = typical_mechanism_params();
  const auto pess = pessimistic_mechanism_params();
  EXPECT_GT(pess.live.switchover_s, typ.live.switchover_s);
  EXPECT_GT(pess.restore.lazy_resume_latency_s, typ.restore.lazy_resume_latency_s);
  EXPECT_LT(pess.restore.read_rate_mb_s, typ.restore.read_rate_mb_s);

  for (const auto combo : kAllCombos) {
    for (const auto cls : {MigrationClass::kForced, MigrationClass::kPlanned}) {
      const auto t = planner(combo, typ).plan(cls, small_spec(), "us-east-1a",
                                              "us-east-1a");
      const auto q = planner(combo, pess).plan(cls, small_spec(), "us-east-1a",
                                               "us-east-1a");
      EXPECT_GE(q.downtime_s, t.downtime_s)
          << to_string(combo) << "/" << to_string(cls);
    }
  }
}

class ComboClassSweep
    : public ::testing::TestWithParam<std::tuple<MechanismCombo, MigrationClass>> {};

TEST_P(ComboClassSweep, TimingsAreNonNegativeAndFinite) {
  const auto& [combo, cls] = GetParam();
  const auto t =
      planner(combo).plan(cls, small_spec(), "us-east-1a", "us-west-1a");
  EXPECT_GE(t.prepare_s, 0.0);
  EXPECT_GE(t.downtime_s, 0.0);
  EXPECT_GE(t.flush_s, 0.0);
  EXPECT_GE(t.restore_s, 0.0);
  EXPECT_GE(t.degraded_s, 0.0);
  EXPECT_LT(t.prepare_s + t.downtime_s, 7200.0);  // sanity: under 2 h
}

INSTANTIATE_TEST_SUITE_P(
    All, ComboClassSweep,
    ::testing::Combine(::testing::ValuesIn(kAllCombos),
                       ::testing::Values(MigrationClass::kForced,
                                         MigrationClass::kPlanned,
                                         MigrationClass::kReverse)));

}  // namespace
}  // namespace spothost::virt
