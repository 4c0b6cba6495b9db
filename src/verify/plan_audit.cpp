#include "verify/plan_audit.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace topk::verify {

namespace {

/// Symbolic state of one bind target while walking the schedule.
struct TargetState {
  bool written = false;
  bool released = false;
};

/// Resolve a bind target to a display name.  Pseudo targets get angle
/// brackets so they cannot collide with real segment names.
std::string target_name(int target, const simgpu::WorkspaceLayout& layout) {
  switch (target) {
    case simgpu::kBindInput: return "<input>";
    case simgpu::kBindOutVals: return "<out_vals>";
    case simgpu::kBindOutIdx: return "<out_idx>";
    default: break;
  }
  if (target >= 0 &&
      static_cast<std::size_t>(target) < layout.segments.size()) {
    return std::string(layout.segments[target].name);
  }
  return "segment#" + std::to_string(target);
}

/// Element capacity of a bind target, or 0 when unknown.  Pseudo targets are
/// sized from the step's shape context (the run_select contract: the input
/// holds batch*n keys, each output batch*k results).
std::uint64_t target_elems(int target, const simgpu::KernelStep& step,
                           const simgpu::WorkspaceLayout& layout) {
  switch (target) {
    case simgpu::kBindInput: return step.batch * step.n;
    case simgpu::kBindOutVals:
    case simgpu::kBindOutIdx: return step.batch * step.k;
    default: break;
  }
  if (target >= 0 &&
      static_cast<std::size_t>(target) < layout.segments.size()) {
    const simgpu::WorkspaceLayout::Segment& seg = layout.segments[target];
    return seg.elem_size == 0 ? 0 : seg.bytes / seg.elem_size;
  }
  return 0;
}

bool valid_target(int target, const simgpu::WorkspaceLayout& layout) {
  if (target == simgpu::kBindInput || target == simgpu::kBindOutVals ||
      target == simgpu::kBindOutIdx) {
    return true;
  }
  return target >= 0 &&
         static_cast<std::size_t>(target) < layout.segments.size();
}

class Auditor {
 public:
  Auditor(const simgpu::KernelSchedule& sched,
          const simgpu::WorkspaceLayout& layout)
      : sched_(sched), layout_(layout) {
    // The run_select contract: the caller's input is device-resident and
    // initialized before the first step; the outputs hold garbage.
    state_[simgpu::kBindInput].written = true;
  }

  AuditReport run() {
    for (std::size_t i = 0; i < sched_.steps.size(); ++i) {
      step_index_ = i;
      const simgpu::KernelStep& step = sched_.steps[i];
      switch (step.kind) {
        case simgpu::KernelStep::Kind::kLaunch: walk_launch(step); break;
        case simgpu::KernelStep::Kind::kHost: walk_host(step); break;
        case simgpu::KernelStep::Kind::kRelease: walk_release(step); break;
      }
      report_.steps_walked++;
      report_.binds_checked += step.binds.size();
    }
    return std::move(report_);
  }

 private:
  void add(DefectKind kind, const simgpu::KernelStep& step, int target,
           std::string detail) {
    Finding f;
    f.kind = kind;
    f.kernel = std::string(step.name);
    f.segment = target_name(target, layout_);
    f.detail = std::move(detail);
    f.step_index = step_index_;
    f.batch = step.batch;
    f.n = step.n;
    f.k = step.k;
    report_.findings.push_back(std::move(f));
  }

  /// Shared per-bind checks (liveness + init order).  Returns false when the
  /// target is not usable and the caller should skip further checks on it.
  bool check_use(const simgpu::KernelStep& step,
                 const simgpu::OperandBind& bind, simgpu::Access access) {
    if (!valid_target(bind.target, layout_)) {
      add(DefectKind::kLifetime, step, bind.target,
          "operand '" + bind.operand + "' bound to segment id " +
              std::to_string(bind.target) +
              " which does not exist in the plan's layout (stale bind)");
      return false;
    }
    TargetState& st = state_[bind.target];
    if (st.released) {
      add(DefectKind::kLifetime, step, bind.target,
          "operand '" + bind.operand + "' uses segment '" +
              target_name(bind.target, layout_) +
              "' after an earlier step released it");
      return false;
    }
    if (simgpu::consumes(access) && !st.written) {
      add(DefectKind::kUninitRead, step, bind.target,
          "operand '" + bind.operand + "' consumes '" +
              target_name(bind.target, layout_) +
              "' but no earlier step wrote it");
    }
    return true;
  }

  void check_overflow(const simgpu::KernelStep& step,
                      const simgpu::OperandBind& bind,
                      const simgpu::OperandSpec& spec) {
    if (step.batch == 0) return;  // no shape context recorded
    const std::uint64_t capacity = target_elems(bind.target, step, layout_);
    if (capacity == 0) return;
    simgpu::ShapeBindings shape;
    shape.n = step.n;
    shape.k = step.k;
    shape.batch = step.batch;
    shape.grid = static_cast<std::uint64_t>(step.grid);
    shape.block = static_cast<std::uint64_t>(step.block_threads);
    shape.seg_elems = capacity;
    const std::uint64_t need = simgpu::eval(spec.extent, shape);
    if (need > capacity) {
      add(DefectKind::kOverflow, step, bind.target,
          "operand '" + bind.operand + "' may touch " +
              std::to_string(need) + " elements but '" +
              target_name(bind.target, layout_) + "' holds only " +
              std::to_string(capacity));
    }
  }

  void walk_launch(const simgpu::KernelStep& step) {
    const simgpu::KernelFootprint* fp = simgpu::find_footprint(step.name);
    if (fp == nullptr) {
      Finding f;
      f.kind = DefectKind::kMissingFootprint;
      f.kernel = std::string(step.name);
      f.detail = "launch step has no registered kernel footprint";
      f.step_index = step_index_;
      f.batch = step.batch;
      f.n = step.n;
      f.k = step.k;
      report_.findings.push_back(std::move(f));
      return;  // nothing else is checkable without operand specs
    }

    std::set<std::string_view> bound;
    // First writer of each segment this step, to attribute overlaps.
    std::map<int, std::string_view> writers;
    std::vector<std::pair<const simgpu::OperandBind*,
                          const simgpu::OperandSpec*>> produced;

    for (const simgpu::OperandBind& bind : step.binds) {
      const simgpu::OperandSpec* spec = nullptr;
      for (const simgpu::OperandSpec& op : fp->operands) {
        if (op.name == bind.operand) {
          spec = &op;
          break;
        }
      }
      if (spec == nullptr) {
        add(DefectKind::kBadBind, step, bind.target,
            "kernel '" + std::string(step.name) +
                "' declares no operand named '" + bind.operand + "'");
        continue;
      }
      bound.insert(spec->name);
      if (!check_use(step, bind, spec->access)) continue;
      check_overflow(step, bind, *spec);

      if (simgpu::is_writable(spec->access)) {
        if (spec->scope == simgpu::WriteScope::kSingleBlock && step.grid > 1) {
          add(DefectKind::kBlockRace, step, bind.target,
              "operand '" + bind.operand +
                  "' is writable with single-block discipline but the "
                  "launch runs " +
                  std::to_string(step.grid) + " blocks");
        }
        // Two non-atomic writers aliasing one segment race across blocks.
        auto [it, inserted] = writers.emplace(bind.target, bind.operand);
        if (!inserted && step.grid > 1) {
          add(DefectKind::kBlockRace, step, bind.target,
              "operands '" + std::string(it->second) + "' and '" +
                  bind.operand + "' both write '" +
                  target_name(bind.target, layout_) + "' from " +
                  std::to_string(step.grid) + " concurrent blocks");
        }
      }
      if (simgpu::produces(spec->access)) produced.push_back({&bind, spec});
    }

    for (const simgpu::OperandSpec& op : fp->operands) {
      if (!op.optional && bound.find(op.name) == bound.end()) {
        add(DefectKind::kBadBind, step, simgpu::kBindInput,
            "required operand '" + op.name + "' of kernel '" +
                std::string(step.name) + "' is not bound");
      }
    }

    // Mark writes only after the whole step is checked: a read-write operand
    // must find its target already written by an EARLIER step.
    for (const auto& [bind, spec] : produced) {
      if (valid_target(bind->target, layout_)) {
        state_[bind->target].written = true;
      }
    }
  }

  void walk_host(const simgpu::KernelStep& step) {
    std::vector<int> produced;
    for (const simgpu::OperandBind& bind : step.binds) {
      if (!check_use(step, bind, bind.access)) continue;
      if (simgpu::produces(bind.access)) produced.push_back(bind.target);
    }
    for (int target : produced) state_[target].written = true;
  }

  void walk_release(const simgpu::KernelStep& step) {
    for (const simgpu::OperandBind& bind : step.binds) {
      if (bind.target < 0) {
        add(DefectKind::kBadBind, step, bind.target,
            "release of external buffer '" +
                target_name(bind.target, layout_) +
                "' (only workspace segments have plan-scoped lifetimes)");
        continue;
      }
      if (!valid_target(bind.target, layout_)) {
        add(DefectKind::kLifetime, step, bind.target,
            "release of segment id " + std::to_string(bind.target) +
                " which does not exist in the plan's layout");
        continue;
      }
      TargetState& st = state_[bind.target];
      if (st.released) {
        add(DefectKind::kLifetime, step, bind.target,
            "segment '" + target_name(bind.target, layout_) +
                "' released twice");
        continue;
      }
      st.released = true;
    }
  }

  const simgpu::KernelSchedule& sched_;
  const simgpu::WorkspaceLayout& layout_;
  std::map<int, TargetState> state_;
  std::size_t step_index_ = 0;
  AuditReport report_;
};

void json_escape(std::ostringstream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

std::string_view defect_kind_name(DefectKind kind) {
  switch (kind) {
    case DefectKind::kOverflow: return "overflow";
    case DefectKind::kUninitRead: return "uninit-read";
    case DefectKind::kBlockRace: return "block-race";
    case DefectKind::kLifetime: return "lifetime";
    case DefectKind::kMissingFootprint: return "missing-footprint";
    case DefectKind::kBadBind: return "bad-bind";
    case DefectKind::kDirectionParity: return "direction-parity";
  }
  return "unknown";
}

std::string Finding::to_string() const {
  std::ostringstream out;
  out << "[" << defect_kind_name(kind) << "] step " << step_index << " ("
      << kernel << ")";
  if (!segment.empty()) out << " segment '" << segment << "'";
  if (batch > 0) {
    out << " at batch=" << batch << " n=" << n << " k=" << k;
  }
  out << ": " << detail;
  return out.str();
}

AuditReport audit_schedule(const simgpu::KernelSchedule& sched,
                           const simgpu::WorkspaceLayout& layout) {
  return Auditor(sched, layout).run();
}

AuditReport audit_plan(const ExecutionPlan& plan) {
  return audit_schedule(plan.schedule(), plan.layout());
}

AuditReport audit_direction_parity(const ExecutionPlan& smallest,
                                   const ExecutionPlan& largest) {
  AuditReport rep;
  const auto defect = [&](std::string_view where, std::size_t index,
                          std::string_view detail) {
    Finding f;
    f.kind = DefectKind::kDirectionParity;
    f.kernel = where;
    f.step_index = index;
    f.batch = largest.batch();
    f.n = largest.n();
    f.k = largest.k();
    f.detail = std::string("largest-K ") + std::string(detail) +
               " differs from its smallest-K twin's";
    rep.findings.push_back(std::move(f));
  };
  const auto& sa = smallest.layout().segments;
  const auto& la = largest.layout().segments;
  if (sa.size() != la.size()) defect("layout", 0, "segment count");
  for (std::size_t i = 0; i < std::min(sa.size(), la.size()); ++i) {
    if (sa[i].name != la[i].name || sa[i].offset != la[i].offset ||
        sa[i].bytes != la[i].bytes || sa[i].elem_size != la[i].elem_size ||
        sa[i].host != la[i].host) {
      defect("layout", i, "segment '" + std::string(la[i].name) + "'");
    }
  }
  const auto& ss = smallest.schedule().steps;
  const auto& ls = largest.schedule().steps;
  if (ss.size() != ls.size()) defect("schedule", 0, "step count");
  for (std::size_t i = 0; i < std::min(ss.size(), ls.size()); ++i) {
    const simgpu::KernelStep& a = ss[i];
    const simgpu::KernelStep& b = ls[i];
    bool same = a.kind == b.kind && a.name == b.name && a.grid == b.grid &&
                a.block_threads == b.block_threads && a.batch == b.batch &&
                a.n == b.n && a.k == b.k && a.binds.size() == b.binds.size();
    for (std::size_t j = 0; same && j < a.binds.size(); ++j) {
      same = a.binds[j].operand == b.binds[j].operand &&
             a.binds[j].target == b.binds[j].target &&
             a.binds[j].access == b.binds[j].access;
    }
    if (!same) defect(b.name, i, "step (kind, grid, shape or binds)");
  }
  rep.steps_walked = std::min(ss.size(), ls.size());
  return rep;
}

std::string to_json(const AuditReport& report) {
  std::ostringstream out;
  out << "{\"clean\": " << (report.clean() ? "true" : "false")
      << ", \"steps_walked\": " << report.steps_walked
      << ", \"binds_checked\": " << report.binds_checked
      << ", \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i > 0) out << ", ";
    out << "{\"kind\": \"" << defect_kind_name(f.kind) << "\", \"kernel\": \"";
    json_escape(out, f.kernel);
    out << "\", \"segment\": \"";
    json_escape(out, f.segment);
    out << "\", \"step\": " << f.step_index << ", \"batch\": " << f.batch
        << ", \"n\": " << f.n << ", \"k\": " << f.k << ", \"detail\": \"";
    json_escape(out, f.detail);
    out << "\"}";
  }
  out << "]}";
  return out.str();
}

}  // namespace topk::verify
