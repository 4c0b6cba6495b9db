// Static plan auditor coverage, two halves:
//
//  - seeded violations: hand-built schedules each carrying exactly one
//    defect (segment overflow, read-before-write, block write race, lifetime
//    misuse, missing footprint, bad bind) must be caught with the right
//    DefectKind AND the right kernel/segment/step attribution — an auditor
//    that fires on the wrong step is as useless as one that never fires;
//  - clean audits: every plan the registry can produce (all kAlgoTable rows,
//    both sort orders, several shapes) must audit clean, which is the
//    workspace-safety proof topk_audit gates CI on.

#include "verify/plan_audit.hpp"

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/registry.hpp"

namespace topk::verify {
namespace {

using simgpu::Access;
using simgpu::AffineVar;
using simgpu::KernelSchedule;
using simgpu::WriteScope;
using simgpu::WorkspaceLayout;

/// Synthetic kernels for the seeded-violation schedules.  Registered under
/// an "at_" prefix so they can never collide with real algorithm kernels.
void register_test_footprints() {
  simgpu::register_footprint(
      {"at_producer",
       {
           {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 4},
           {"dst", Access::kWrite, WriteScope::kBlockLocal,
            {{AffineVar::kN}}, 4},
       }});
  simgpu::register_footprint(
      {"at_consumer",
       {
           {"src", Access::kRead, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 4},
           {"out", Access::kWrite, WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}}, 4},
       }});
  simgpu::register_footprint(
      {"at_scan",
       {
           {"buf", Access::kReadWrite, WriteScope::kSingleBlock,
            {{AffineVar::kSegElems}}, 4},
       }});
  simgpu::register_footprint(
      {"at_two_writers",
       {
           {"a", Access::kWrite, WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}}, 4},
           {"b", Access::kWrite, WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}}, 4},
       }});
}

/// One producer writing `seg`, recorded with shape (batch=1, n, k).
void record_producer(KernelSchedule& sched, int seg, std::size_t n,
                     std::size_t k) {
  sched.add_launch("at_producer", 4, 256, 1, n, k,
                   {{"in", simgpu::kBindInput, Access::kRead},
                    {"dst", seg, Access::kWrite}});
}

std::size_t count_kind(const AuditReport& rep, DefectKind kind) {
  std::size_t count = 0;
  for (const Finding& f : rep.findings) count += f.kind == kind ? 1 : 0;
  return count;
}

TEST(PlanAudit, CleanHandBuiltScheduleIsClean) {
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<float>("scratch", 1024));
  KernelSchedule sched;
  record_producer(sched, seg, 1024, 16);
  sched.add_launch("at_consumer", 4, 256, 1, 1024, 16,
                   {{"src", seg, Access::kRead},
                    {"out", simgpu::kBindOutVals, Access::kWrite}});
  const AuditReport rep = audit_schedule(sched, layout);
  EXPECT_TRUE(rep.clean()) << to_json(rep);
  EXPECT_EQ(rep.steps_walked, 2u);
  EXPECT_EQ(rep.binds_checked, 4u);
}

TEST(PlanAudit, SeededOverflowIsCaughtWithAttribution) {
  register_test_footprints();
  WorkspaceLayout layout;
  // at_producer's dst extent is n elements; give the segment only n/2.
  const int seg = static_cast<int>(layout.add<float>("undersized", 512));
  KernelSchedule sched;
  record_producer(sched, seg, 1024, 16);
  const AuditReport rep = audit_schedule(sched, layout);
  ASSERT_EQ(count_kind(rep, DefectKind::kOverflow), 1u) << to_json(rep);
  const Finding& f = rep.findings.front();
  EXPECT_EQ(f.kind, DefectKind::kOverflow);
  EXPECT_EQ(f.kernel, "at_producer");
  EXPECT_EQ(f.segment, "undersized");
  EXPECT_EQ(f.step_index, 0u);
  EXPECT_EQ(f.n, 1024u);
  EXPECT_NE(f.detail.find("1024"), std::string::npos) << f.detail;
  EXPECT_NE(f.detail.find("512"), std::string::npos) << f.detail;
}

TEST(PlanAudit, SeededReadBeforeWriteIsCaughtWithAttribution) {
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<float>("never written", 1024));
  KernelSchedule sched;  // consumer only: nothing ever produced the segment
  sched.add_launch("at_consumer", 4, 256, 1, 1024, 16,
                   {{"src", seg, Access::kRead},
                    {"out", simgpu::kBindOutVals, Access::kWrite}});
  const AuditReport rep = audit_schedule(sched, layout);
  ASSERT_EQ(rep.findings.size(), 1u) << to_json(rep);
  const Finding& f = rep.findings.front();
  EXPECT_EQ(f.kind, DefectKind::kUninitRead);
  EXPECT_EQ(f.kernel, "at_consumer");
  EXPECT_EQ(f.segment, "never written");
  EXPECT_EQ(f.step_index, 0u);
}

TEST(PlanAudit, WriteOrderMattersNotJustPresence) {
  // The same two steps in the other order audit clean — the rule is about
  // sequencing, so flipping producer and consumer must flip the verdict.
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<float>("late", 1024));
  KernelSchedule sched;
  sched.add_launch("at_consumer", 4, 256, 1, 1024, 16,
                   {{"src", seg, Access::kRead},
                    {"out", simgpu::kBindOutVals, Access::kWrite}});
  record_producer(sched, seg, 1024, 16);
  const AuditReport rep = audit_schedule(sched, layout);
  EXPECT_EQ(count_kind(rep, DefectKind::kUninitRead), 1u) << to_json(rep);
  EXPECT_EQ(rep.findings.front().step_index, 0u);
}

TEST(PlanAudit, SeededSingleBlockRaceIsCaughtWithAttribution) {
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<std::uint32_t>("hist", 256));
  KernelSchedule sched;
  record_producer(sched, seg, 256, 16);
  // at_scan's buf is single-block discipline; launching it wide races.
  sched.add_launch("at_scan", 8, 256, 1, 256, 16,
                   {{"buf", seg, Access::kReadWrite}});
  const AuditReport rep = audit_schedule(sched, layout);
  ASSERT_EQ(rep.findings.size(), 1u) << to_json(rep);
  const Finding& f = rep.findings.front();
  EXPECT_EQ(f.kind, DefectKind::kBlockRace);
  EXPECT_EQ(f.kernel, "at_scan");
  EXPECT_EQ(f.segment, "hist");
  EXPECT_EQ(f.step_index, 1u);
  EXPECT_NE(f.detail.find("8 blocks"), std::string::npos) << f.detail;

  // The same bind at grid == 1 is the declared discipline: clean.
  KernelSchedule serial;
  record_producer(serial, seg, 256, 16);
  serial.add_launch("at_scan", 1, 256, 1, 256, 16,
                    {{"buf", seg, Access::kReadWrite}});
  EXPECT_TRUE(audit_schedule(serial, layout).clean());
}

TEST(PlanAudit, SeededWriterWriterOverlapIsCaughtWithAttribution) {
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<float>("shared out", 1024));
  KernelSchedule sched;
  // Both write operands aimed at one segment from a multi-block grid.
  sched.add_launch("at_two_writers", 4, 256, 1, 1024, 16,
                   {{"a", seg, Access::kWrite}, {"b", seg, Access::kWrite}});
  const AuditReport rep = audit_schedule(sched, layout);
  ASSERT_EQ(rep.findings.size(), 1u) << to_json(rep);
  const Finding& f = rep.findings.front();
  EXPECT_EQ(f.kind, DefectKind::kBlockRace);
  EXPECT_EQ(f.kernel, "at_two_writers");
  EXPECT_EQ(f.segment, "shared out");
  EXPECT_NE(f.detail.find("'a'"), std::string::npos) << f.detail;
  EXPECT_NE(f.detail.find("'b'"), std::string::npos) << f.detail;

  // Disjoint targets: clean.
  const int seg2 = static_cast<int>(layout.add<float>("other out", 1024));
  KernelSchedule disjoint;
  disjoint.add_launch("at_two_writers", 4, 256, 1, 1024, 16,
                      {{"a", seg, Access::kWrite},
                       {"b", seg2, Access::kWrite}});
  EXPECT_TRUE(audit_schedule(disjoint, layout).clean());
}

TEST(PlanAudit, SeededUseAfterReleaseIsCaughtWithAttribution) {
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<float>("freed early", 1024));
  KernelSchedule sched;
  record_producer(sched, seg, 1024, 16);
  sched.add_release({seg});
  sched.add_launch("at_consumer", 4, 256, 1, 1024, 16,
                   {{"src", seg, Access::kRead},
                    {"out", simgpu::kBindOutVals, Access::kWrite}});
  const AuditReport rep = audit_schedule(sched, layout);
  ASSERT_EQ(rep.findings.size(), 1u) << to_json(rep);
  const Finding& f = rep.findings.front();
  EXPECT_EQ(f.kind, DefectKind::kLifetime);
  EXPECT_EQ(f.kernel, "at_consumer");
  EXPECT_EQ(f.segment, "freed early");
  EXPECT_EQ(f.step_index, 2u);
}

TEST(PlanAudit, DoubleReleaseAndStaleBindAreLifetimeDefects) {
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<float>("twice", 64));
  KernelSchedule sched;
  record_producer(sched, seg, 64, 4);
  sched.add_release({seg});
  sched.add_release({seg});  // double release
  const AuditReport rep = audit_schedule(sched, layout);
  ASSERT_EQ(rep.findings.size(), 1u) << to_json(rep);
  EXPECT_EQ(rep.findings.front().kind, DefectKind::kLifetime);
  EXPECT_EQ(rep.findings.front().step_index, 2u);

  // A bind to a segment id the layout never planned is a stale bind.
  KernelSchedule stale;
  stale.add_launch("at_consumer", 4, 256, 1, 64, 4,
                   {{"src", 99, Access::kRead},
                    {"out", simgpu::kBindOutVals, Access::kWrite}});
  const AuditReport rep2 = audit_schedule(stale, layout);
  ASSERT_EQ(rep2.findings.size(), 1u) << to_json(rep2);
  EXPECT_EQ(rep2.findings.front().kind, DefectKind::kLifetime);
  EXPECT_NE(rep2.findings.front().detail.find("99"), std::string::npos);
}

TEST(PlanAudit, SeededMissingFootprintIsCaught) {
  WorkspaceLayout layout;
  KernelSchedule sched;
  sched.add_launch("at_never_registered_kernel", 1, 256, 1, 64, 4, {});
  const AuditReport rep = audit_schedule(sched, layout);
  ASSERT_EQ(rep.findings.size(), 1u) << to_json(rep);
  EXPECT_EQ(rep.findings.front().kind, DefectKind::kMissingFootprint);
  EXPECT_EQ(rep.findings.front().kernel, "at_never_registered_kernel");
}

TEST(PlanAudit, SeededBadBindsAreCaught) {
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<float>("scratch", 64));
  // Unknown operand name.
  KernelSchedule unknown;
  unknown.add_launch("at_producer", 1, 256, 1, 64, 4,
                     {{"in", simgpu::kBindInput, Access::kRead},
                      {"dst", seg, Access::kWrite},
                      {"no_such_operand", seg, Access::kRead}});
  const AuditReport rep = audit_schedule(unknown, layout);
  ASSERT_EQ(rep.findings.size(), 1u) << to_json(rep);
  EXPECT_EQ(rep.findings.front().kind, DefectKind::kBadBind);
  EXPECT_NE(rep.findings.front().detail.find("no_such_operand"),
            std::string::npos);

  // Required operand left unbound.
  KernelSchedule unbound;
  unbound.add_launch("at_producer", 1, 256, 1, 64, 4,
                     {{"in", simgpu::kBindInput, Access::kRead}});
  const AuditReport rep2 = audit_schedule(unbound, layout);
  ASSERT_EQ(rep2.findings.size(), 1u) << to_json(rep2);
  EXPECT_EQ(rep2.findings.front().kind, DefectKind::kBadBind);
  EXPECT_NE(rep2.findings.front().detail.find("'dst'"), std::string::npos);
}

TEST(PlanAudit, JsonReportCarriesKindAndAttribution) {
  register_test_footprints();
  WorkspaceLayout layout;
  const int seg = static_cast<int>(layout.add<float>("never written", 16));
  KernelSchedule sched;
  sched.add_launch("at_consumer", 1, 256, 1, 16, 4,
                   {{"src", seg, Access::kRead},
                    {"out", simgpu::kBindOutVals, Access::kWrite}});
  const std::string json = to_json(audit_schedule(sched, layout));
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"uninit-read\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel\": \"at_consumer\""), std::string::npos);
  EXPECT_NE(json.find("\"segment\": \"never written\""), std::string::npos);
}

/// ---- Clean audits over the real registry ---------------------------------

class RegistryAudit : public ::testing::TestWithParam<topk::AlgoRow> {};

TEST_P(RegistryAudit, EveryPlannedShapeAuditsClean) {
  const topk::AlgoRow& row = GetParam();
  const simgpu::DeviceSpec spec{};
  const struct { std::size_t batch, n, k; } shapes[] = {
      {1, 1u << 12, 8}, {1, 1u << 15, 100}, {4, 1u << 10, 1}, {2, 4096, 256},
  };
  for (const auto& s : shapes) {
    if (row.k_limit != 0 && s.k > row.k_limit) continue;
    for (const bool greatest : {false, true}) {
      topk::SelectOptions opt;
      opt.greatest = greatest;
      const topk::ExecutionPlan plan =
          topk::plan_select(spec, s.batch, s.n, s.k, row.algo, opt);
      const AuditReport rep = audit_plan(plan);
      EXPECT_TRUE(rep.clean())
          << row.key << " batch=" << s.batch << " n=" << s.n << " k=" << s.k
          << " greatest=" << greatest << ": " << to_json(rep);
      EXPECT_GT(rep.steps_walked, 0u) << row.key << ": plan recorded nothing";
      EXPECT_GT(rep.binds_checked, 0u) << row.key;
    }
  }
}

std::vector<topk::AlgoRow> auditable_rows() {
  std::vector<topk::AlgoRow> rows;
  for (const topk::AlgoRow& row : topk::kAlgoTable) {
    if (row.plan != nullptr) rows.push_back(row);
  }
  return rows;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RegistryAudit,
                         ::testing::ValuesIn(auditable_rows()),
                         [](const auto& info) {
                           std::string name(info.param.key);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(RegistryAudit, LargestKPlansLikeItsSmallestKTwin) {
  // Direction lives in the plan's KeyOrder: a largest-K plan must lay out
  // and schedule exactly what its smallest-K twin does, on every carrier.
  const topk::AlgoRow& row = GetParam();
  const simgpu::DeviceSpec spec{};
  for (const topk::KeyType dtype : {topk::KeyType::kF32, topk::KeyType::kU32}) {
    if ((row.dtypes & topk::key_type_bit(dtype)) == 0) continue;
    topk::SelectOptions opt;
    opt.dtype = dtype;
    const topk::ExecutionPlan smallest =
        topk::plan_select(spec, 2, 4096, 64, row.algo, opt);
    opt.greatest = true;
    const topk::ExecutionPlan largest =
        topk::plan_select(spec, 2, 4096, 64, row.algo, opt);
    const AuditReport rep = audit_direction_parity(smallest, largest);
    EXPECT_TRUE(rep.clean()) << row.key << " " << topk::key_type_name(dtype)
                             << ": " << to_json(rep);
  }
}

TEST(PlanAudit, DirectionParityReportsADifferingTwin) {
  // Plans of different shapes stand in for a direction that changed what is
  // planned: the rule must name the layout and the schedule.
  const simgpu::DeviceSpec spec{};
  const topk::ExecutionPlan a =
      topk::plan_select(spec, 1, 1u << 16, 8, topk::Algo::kGridSelect);
  const topk::ExecutionPlan b =
      topk::plan_select(spec, 1, 1u << 16, 300, topk::Algo::kGridSelect);
  const AuditReport rep = audit_direction_parity(a, b);
  ASSERT_FALSE(rep.clean());
  bool layout = false, schedule = false;
  for (const Finding& f : rep.findings) {
    EXPECT_EQ(f.kind, DefectKind::kDirectionParity);
    layout |= f.kernel == "layout";
    schedule |= f.kernel != "layout";
  }
  EXPECT_TRUE(layout) << to_json(rep);
  EXPECT_TRUE(schedule) << to_json(rep);
  EXPECT_EQ(defect_kind_name(DefectKind::kDirectionParity), "direction-parity");
  EXPECT_TRUE(audit_direction_parity(a, a).clean());
}

TEST(PlanAudit, AuditPlanRejectsInvalidHandle) {
  EXPECT_THROW((void)audit_plan(topk::ExecutionPlan{}), std::logic_error);
}

}  // namespace
}  // namespace topk::verify
