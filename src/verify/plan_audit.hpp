#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/topk.hpp"
#include "simgpu/simgpu.hpp"

/// Static plan auditor.
///
/// audit_schedule() symbolically executes a plan's recorded KernelSchedule
/// against its WorkspaceLayout — no Device, no kernels, no data — and proves
/// (or refutes) four workspace-safety properties for the exact shape the
/// plan was built for:
///
///  1. sizing      — every operand's declared extent (the kernel footprint's
///                   conservative bound, evaluated at the step's recorded
///                   launch shape) fits the bound segment;
///  2. init order  — no step consumes a segment before an earlier step (or
///                   the external input) produced it;
///  3. write races — written operands respect their declared WriteScope at
///                   the recorded grid, and no two non-atomic writers of one
///                   step alias the same segment across blocks;
///  4. lifetimes   — no bind targets a released or nonexistent segment, and
///                   nothing is released twice.
///
/// Because plan_select() is a pure function of (spec, shape, algo, options),
/// a clean audit of a plan is a proof about every future run of that plan —
/// the dynamic simcheck sanitizer (docs/sanitizer.md) can then only find
/// data-dependent deviations from the recorded nominal schedule.
namespace topk::verify {

/// The defect classes the auditor can prove absent.
enum class DefectKind : std::uint8_t {
  kOverflow,          ///< declared extent exceeds the bound target's capacity
  kUninitRead,        ///< consumed before any step produced the target
  kBlockRace,         ///< write discipline unsafe at the recorded grid
  kLifetime,          ///< use after release, double release, or stale bind
  kMissingFootprint,  ///< launch step's kernel has no registered footprint
  kBadBind,           ///< unknown operand, unbound required operand, or an
                      ///< invalid bind target
  kDirectionParity,   ///< a largest-K plan differs from its smallest-K twin
};

/// Stable kebab-case name for a defect kind ("overflow", "uninit-read", ...).
[[nodiscard]] std::string_view defect_kind_name(DefectKind kind);

/// One audit finding with full attribution: which kernel (or host step),
/// which segment, at which step of the schedule, under which shape.
struct Finding {
  DefectKind kind = DefectKind::kBadBind;
  std::string kernel;           ///< step name (kernel / host label / release)
  std::string segment;          ///< segment name or pseudo-target name
  std::string detail;           ///< human-readable explanation with numbers
  std::size_t step_index = 0;   ///< position in the schedule (0-based)
  std::size_t batch = 0;        ///< the step's recorded shape context
  std::size_t n = 0;
  std::size_t k = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Result of one audit.  `clean()` is the proof: the schedule walked end to
/// end without a single violated property.
struct AuditReport {
  std::vector<Finding> findings;
  std::size_t steps_walked = 0;
  std::size_t binds_checked = 0;

  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Walk `sched` in order against `layout` and report every defect found.
/// The external input starts written; the output pseudo-targets start
/// unwritten (a plan that reads its outputs before filling them is flagged).
[[nodiscard]] AuditReport audit_schedule(const simgpu::KernelSchedule& sched,
                                         const simgpu::WorkspaceLayout& layout);

/// Audit a planned selection (its recorded schedule against its layout).
/// Throws std::logic_error on an invalid (default-constructed) plan.
[[nodiscard]] AuditReport audit_plan(const ExecutionPlan& plan);

/// Direction parity: the direction lives in the plan's KeyOrder, so a
/// largest-K plan must lay out the same segments (names, bytes, alignment
/// offsets, host flags) and record the same schedule (step kinds, names,
/// grids, shapes and binds) as its smallest-K twin.  Reports one
/// kDirectionParity finding per differing segment or step, or for a
/// differing count.
[[nodiscard]] AuditReport audit_direction_parity(
    const ExecutionPlan& smallest, const ExecutionPlan& largest);

/// Serialize a report as a JSON object:
///   {"clean": bool, "steps_walked": N, "binds_checked": M,
///    "findings": [{"kind": ..., "kernel": ..., "segment": ...,
///                  "step": ..., "batch": ..., "n": ..., "k": ...,
///                  "detail": ...}, ...]}
[[nodiscard]] std::string to_json(const AuditReport& report);

}  // namespace topk::verify
