#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// Kernel footprint contracts.
///
/// A KernelFootprint declares, per operand, how a kernel touches device
/// memory: the access mode (read / write / read-write / atomic), the write
/// scope (which concurrency discipline makes concurrent writes safe), and a
/// conservative element-count bound expressed as an affine function of the
/// launch shape (n, k, batch, grid, block) via AffineExpr.  Footprints are
/// registered once per kernel name at *plan* time and consumed by two
/// independent checkers:
///
///  - simgpu::launch cross-checks the observed KernelStats against the
///    declaration in debug builds (see check_launch_against_footprint), so a
///    contract that drifts from the kernel it describes fails the first
///    debug-mode test run that launches it — contracts can't rot.
///  - topk::verify::audit_schedule walks a plan's recorded KernelSchedule
///    symbolically against its WorkspaceLayout and proves segment sizing,
///    initialization order, write-race freedom and segment lifetimes without
///    executing anything (see src/verify/plan_audit.hpp).
///
/// The checking is strictly post-hoc and read-only: it never touches
/// BlockCounters, KernelStats or the event log, so modeled time stays
/// bit-identical with checking on or off.
namespace simgpu {

/// How a kernel operand touches its buffer.
enum class Access : std::uint8_t {
  kRead,       ///< element loads only
  kWrite,      ///< element stores only
  kReadWrite,  ///< both plain loads and stores
  kAtomic,     ///< atomic RMW / atomic load / atomic store traffic
};

/// Concurrency discipline that makes a *written* operand safe when the
/// launch has more than one block.  Purely declarative — the static auditor
/// uses it to tell protocol-safe concurrent writes from genuine races.
enum class WriteScope : std::uint8_t {
  kNone,        ///< not written (read-only operands)
  kBlockLocal,  ///< blocks write disjoint ranges (block_chunk / per-problem)
  kReserved,    ///< positions reserved through an atomic cursor before the
                ///< store (AggregatedAppender / ScatterWriter protocols)
  kSingleBlock, ///< safe only when grid == 1 (serial scan / memset / emit)
};

/// Variables an AffineExpr term can reference.  All evaluate from the launch
/// shape except kSegElems, which stands for "the element count of whatever
/// workspace segment this operand is bound to" — the escape hatch for bounds
/// that are data- or tuning-dependent (candidate buffers, partial lists).
/// kSegElems is evaluable only by the plan auditor (which knows the bound
/// segment); the launch-time checker skips ceilings that involve it.
enum class AffineVar : std::uint8_t {
  kOne,       ///< the constant 1
  kN,         ///< per-problem input length
  kK,         ///< selection size
  kBatch,     ///< number of problems covered by the launch
  kBatchN,    ///< batch * n
  kBatchK,    ///< batch * k
  kGrid,      ///< grid blocks of the launch
  kBlock,     ///< threads per block
  kSegElems,  ///< element count of the bound segment (audit-time only)
};

/// One term of an affine bound: ceil(mul * var / div) elements.  The ceiling
/// division covers per-block partitioning bounds such as ceil(n / grid).
struct AffineTerm {
  AffineVar var = AffineVar::kOne;
  std::uint64_t mul = 1;
  std::uint64_t div = 1;
};

/// Conservative element-count bound: the sum of its terms.
struct AffineExpr {
  std::vector<AffineTerm> terms;

  AffineExpr() = default;
  AffineExpr(std::initializer_list<AffineTerm> t) : terms(t) {}

  [[nodiscard]] bool references(AffineVar v) const {
    for (const AffineTerm& t : terms) {
      if (t.var == v) return true;
    }
    return false;
  }
};

/// Shape bindings for AffineExpr evaluation.  `seg_elems` may be left 0 when
/// the expression does not reference kSegElems (launch-time checking).
struct ShapeBindings {
  std::uint64_t n = 0;
  std::uint64_t k = 0;
  std::uint64_t batch = 0;
  std::uint64_t grid = 0;
  std::uint64_t block = 0;
  std::uint64_t seg_elems = 0;
};

[[nodiscard]] inline std::uint64_t eval(const AffineExpr& e,
                                        const ShapeBindings& s) {
  std::uint64_t total = 0;
  for (const AffineTerm& t : e.terms) {
    std::uint64_t v = 0;
    switch (t.var) {
      case AffineVar::kOne: v = 1; break;
      case AffineVar::kN: v = s.n; break;
      case AffineVar::kK: v = s.k; break;
      case AffineVar::kBatch: v = s.batch; break;
      case AffineVar::kBatchN: v = s.batch * s.n; break;
      case AffineVar::kBatchK: v = s.batch * s.k; break;
      case AffineVar::kGrid: v = s.grid; break;
      case AffineVar::kBlock: v = s.block; break;
      case AffineVar::kSegElems: v = s.seg_elems; break;
    }
    const std::uint64_t div = t.div == 0 ? 1 : t.div;
    total += (t.mul * v + div - 1) / div;
  }
  return total;
}

/// One declared operand of a kernel.
struct OperandSpec {
  /// Role name; the KernelSchedule's OperandBind entries use the same
  /// spelling to attach workspace segments to roles.
  std::string name;
  Access access = Access::kRead;
  WriteScope scope = WriteScope::kNone;
  /// Conservative bound on the highest element index touched + 1.
  AffineExpr extent;
  /// Conservative bytes per element (used only for launch-time byte
  /// ceilings; declare the max the kernel template can instantiate with, so
  /// e.g. value-typed operands declare 8 even when runs use float).
  std::size_t elem_size = 4;
  /// Optional operands (external index buffers, direct-output alternates)
  /// may be left unbound by a schedule step.
  bool optional = false;
};

[[nodiscard]] inline bool is_readable(Access a) {
  return a == Access::kRead || a == Access::kReadWrite;
}
[[nodiscard]] inline bool is_writable(Access a) {
  return a == Access::kWrite || a == Access::kReadWrite;
}
/// Whether the operand's contents are consumed (its segment must have been
/// written first).  Atomic RMW reads the previous value, so it counts.
[[nodiscard]] inline bool consumes(Access a) {
  return a != Access::kWrite;
}
/// Whether the operand's segment holds (possibly partial) results afterward.
[[nodiscard]] inline bool produces(Access a) {
  return a != Access::kRead;
}

/// Declared footprint of one kernel.  `kernel` is the kernel's name as it
/// appears in LaunchConfig; per-pass kernels whose names carry a "(pass)"
/// suffix (e.g. "Filter(2)") register under the bare family name ("Filter")
/// and lookups strip the suffix.
struct KernelFootprint {
  std::string kernel;
  std::vector<OperandSpec> operands;
};

namespace footprint_detail {

struct Registry {
  std::mutex mu;
  std::map<std::string, KernelFootprint, std::less<>> by_name;
};

inline Registry& registry() {
  static Registry r;
  return r;
}

/// "Filter(2)" -> "Filter"; names without a "(digits)" suffix are returned
/// unchanged.
[[nodiscard]] inline std::string_view strip_pass_suffix(
    std::string_view name) {
  if (name.empty() || name.back() != ')') return name;
  const std::size_t open = name.rfind('(');
  if (open == std::string_view::npos || open == 0) return name;
  for (std::size_t i = open + 1; i + 1 < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return name;
  }
  return name.substr(0, open);
}

}  // namespace footprint_detail

/// Register a kernel footprint.  Idempotent by kernel name: the first
/// registration wins and later identical-name registrations are ignored, so
/// plan functions may register unconditionally on every call.  Because of
/// this, extents must be shape-generic — never fold a plan-specific constant
/// (a digit width, an adaptive buffer divisor) into a coefficient; use
/// AffineVar::kSegElems for bounds that depend on tuning options.
inline void register_footprint(KernelFootprint fp) {
  auto& reg = footprint_detail::registry();
  const std::scoped_lock lock(reg.mu);
  reg.by_name.try_emplace(fp.kernel, std::move(fp));
}

/// Look up a footprint by launch name; per-pass "(digits)" suffixes fall
/// back to the bare family name.  Returns nullptr when none is registered.
/// The pointer stays valid for the process lifetime (registrations are never
/// removed).
[[nodiscard]] inline const KernelFootprint* find_footprint(
    std::string_view kernel) {
  auto& reg = footprint_detail::registry();
  const std::scoped_lock lock(reg.mu);
  auto it = reg.by_name.find(kernel);
  if (it == reg.by_name.end()) {
    it = reg.by_name.find(footprint_detail::strip_pass_suffix(kernel));
  }
  return it == reg.by_name.end() ? nullptr : &it->second;
}

/// All registered footprint names (sorted), for audit tooling.
[[nodiscard]] inline std::vector<std::string> registered_footprint_names() {
  auto& reg = footprint_detail::registry();
  const std::scoped_lock lock(reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.by_name.size());
  for (const auto& [name, fp] : reg.by_name) names.push_back(name);
  return names;
}

/// ---- Recorded kernel schedules -------------------------------------------

/// Pseudo segment targets for the run-time buffers that are not workspace
/// segments: the external input and the two output buffers.
inline constexpr int kBindInput = -1;
inline constexpr int kBindOutVals = -2;
inline constexpr int kBindOutIdx = -3;

/// Binds one footprint operand role to a workspace segment (id >= 0) or one
/// of the pseudo targets above.  `access` is consulted only for host steps
/// (launch steps take access modes from the registered footprint).
struct OperandBind {
  std::string operand;
  int target = kBindInput;
  Access access = Access::kRead;
};

/// One step of a plan's execution, recorded at plan time.
struct KernelStep {
  enum class Kind : std::uint8_t {
    kLaunch,   ///< a device kernel launch (footprint-checked)
    kHost,     ///< host-side traffic: copy_to_host / upload_recorded /
               ///< host-side transforms touching workspace segments
    kRelease,  ///< the bound targets' lifetimes end here
  };
  Kind kind = Kind::kLaunch;
  std::string_view name;  ///< kernel name (interned) or a host-step label
  int grid = 1;
  int block_threads = 1;
  std::size_t batch = 0;  ///< problems covered by this step
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<OperandBind> binds;
};

/// The kernel sequence a plan will execute, in order, with every operand ->
/// segment binding made explicit.  Algorithms with data-dependent control
/// flow (iterative filtering, early stopping) record a conservative nominal
/// unrolling: the first pass from the input plus one representative pass
/// from the candidate buffers, with extents bounded as if nothing had been
/// filtered — a superset of any real execution's footprint.
struct KernelSchedule {
  std::vector<KernelStep> steps;

  /// Append a launch step.  No-op helper-style overloads below accept a null
  /// schedule pointer so plan functions can record unconditionally.
  void add_launch(std::string_view kernel, int grid, int block_threads,
                  std::size_t batch, std::size_t n, std::size_t k,
                  std::vector<OperandBind> binds) {
    KernelStep s;
    s.kind = KernelStep::Kind::kLaunch;
    s.name = kernel;
    s.grid = grid;
    s.block_threads = block_threads;
    s.batch = batch;
    s.n = n;
    s.k = k;
    s.binds = std::move(binds);
    steps.push_back(std::move(s));
  }

  void add_host(std::string_view label, std::vector<OperandBind> binds) {
    KernelStep s;
    s.kind = KernelStep::Kind::kHost;
    s.name = label;
    s.binds = std::move(binds);
    steps.push_back(std::move(s));
  }

  void add_release(std::vector<int> targets) {
    KernelStep s;
    s.kind = KernelStep::Kind::kRelease;
    s.name = "release";
    for (int t : targets) s.binds.push_back({"", t, Access::kRead});
    steps.push_back(std::move(s));
  }
};

/// Null-tolerant recording helpers: plan functions take an optional
/// KernelSchedule* and call these unconditionally.
inline void record_launch(KernelSchedule* sched, std::string_view kernel,
                          int grid, int block_threads, std::size_t batch,
                          std::size_t n, std::size_t k,
                          std::vector<OperandBind> binds) {
  if (sched == nullptr) return;
  sched->add_launch(kernel, grid, block_threads, batch, n, k,
                    std::move(binds));
}

inline void record_host(KernelSchedule* sched, std::string_view label,
                        std::vector<OperandBind> binds) {
  if (sched == nullptr) return;
  sched->add_host(label, std::move(binds));
}

/// ---- Launch-time contract cross-check ------------------------------------

/// Whether simgpu::launch cross-checks KernelStats against registered
/// footprints: in debug builds (NDEBUG unset), not in release builds.
[[nodiscard]] constexpr bool footprint_check_enabled() {
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

/// Thrown when an observed launch contradicts the kernel's declared
/// footprint.
class FootprintViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Cross-check one launch's observed counters against the registered
/// footprint for `kernel` (no-op when none is registered).
///
/// Two families of checks:
///  - direction consistency (shape-free): observed reads require a readable
///    operand, observed writes a writable one, observed atomics an atomic
///    one — catches access-mode rot on every launch;
///  - byte ceilings (only when the launch site supplied shape context,
///    batch > 0): bytes_read / bytes_written must not exceed the summed
///    declared extents of the readable / writable operands.  A ceiling whose
///    operands include a kSegElems-bounded extent is skipped — that bound is
///    only evaluable by the plan auditor.
///
/// Atomic traffic is charged to atomic counters, never bytes, so atomic
/// operands never contribute to the byte ceilings.
inline void check_launch_against_footprint(
    std::string_view kernel, std::uint64_t bytes_read,
    std::uint64_t bytes_written, std::uint64_t atomic_ops, int grid,
    int block_threads, std::size_t batch, std::size_t n, std::size_t k) {
  const KernelFootprint* fp = find_footprint(kernel);
  if (fp == nullptr) return;

  bool any_read = false, any_write = false, any_atomic = false;
  for (const OperandSpec& op : fp->operands) {
    any_read = any_read || is_readable(op.access);
    any_write = any_write || is_writable(op.access);
    any_atomic = any_atomic || op.access == Access::kAtomic;
  }
  const auto fail = [&](const std::string& what) {
    throw FootprintViolation("footprint contract violated by kernel '" +
                             std::string(kernel) + "': " + what);
  };
  if (bytes_read > 0 && !any_read) {
    fail("observed " + std::to_string(bytes_read) +
         " bytes read but no operand is declared readable");
  }
  if (bytes_written > 0 && !any_write) {
    fail("observed " + std::to_string(bytes_written) +
         " bytes written but no operand is declared writable");
  }
  if (atomic_ops > 0 && !any_atomic) {
    fail("observed " + std::to_string(atomic_ops) +
         " atomic ops but no operand is declared atomic");
  }

  if (batch == 0) return;  // no shape context at this launch site
  ShapeBindings shape;
  shape.n = n;
  shape.k = k;
  shape.batch = batch;
  shape.grid = static_cast<std::uint64_t>(grid);
  shape.block = static_cast<std::uint64_t>(block_threads);

  const auto ceiling = [&](bool want_read) -> std::uint64_t {
    std::uint64_t total = 0;
    for (const OperandSpec& op : fp->operands) {
      const bool relevant =
          want_read ? is_readable(op.access) : is_writable(op.access);
      if (!relevant) continue;
      if (op.extent.references(AffineVar::kSegElems)) return 0;  // skip
      total += eval(op.extent, shape) *
               static_cast<std::uint64_t>(op.elem_size);
    }
    return total;
  };
  if (const std::uint64_t cap = ceiling(true);
      cap > 0 && bytes_read > cap) {
    fail("observed " + std::to_string(bytes_read) +
         " bytes read exceeds the declared ceiling of " +
         std::to_string(cap) + " bytes");
  }
  if (const std::uint64_t cap = ceiling(false);
      cap > 0 && bytes_written > cap) {
    fail("observed " + std::to_string(bytes_written) +
         " bytes written exceeds the declared ceiling of " +
         std::to_string(cap) + " bytes");
  }
}

}  // namespace simgpu
