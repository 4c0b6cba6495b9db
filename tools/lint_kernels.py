#!/usr/bin/env python3
"""Forbid raw device-memory access inside simgpu kernel lambdas.

Kernel bodies (the lambda argument of ``simgpu::launch``) must go through the
accounted BlockCtx accessors (load/store/atomic_*) or the SharedSpan proxies.
Touching a DeviceBuffer through ``.data()`` or ``.host_span()`` inside a
kernel bypasses both the traffic accounting and the simcheck sanitizer, so
this linter rejects any ``.data()`` / ``.host_span()`` call textually inside
a ``launch(...)`` call expression under ``src/topk``.

Raw-span *escapes* — ``unchecked_data()`` on a SharedSpan, the
``raw_view(...)`` unwrap helper and ``BlockCtx::prepaid_reads()`` (a raw
device pointer whose reads were charged in bulk) — are a second, related
hazard: each returns a usable pointer only while no sanitizer is attached,
so a site must not dereference it before checking.  Every escape site must
therefore show gate evidence in an *enclosing brace scope*: a nullptr or
``empty()`` check of the unwrapped result (the canonical gate — the null
return *is* the gate state), or a ``warpfast_enabled()`` test (or a
per-block flag sampled from it), which holds in exactly the same state.
The search walks outward from the innermost scope containing the escape
(including each scope's ``if (...)`` header), so evidence in a *neighboring*
function can never vouch for an ungated escape the way the old fixed
line-window heuristic allowed.

The two-phase execution contract adds a third rule: ``*_run()`` function
bodies in ``src/topk`` must perform **zero** device allocations — every byte
of scratch is described by ``*_plan()`` in a WorkspaceLayout and served from
the bound pooled Workspace, so calling ``dev.alloc``/``dev.alloc_zero`` (or
``Device::alloc*`` through any other spelling) inside a run body is flagged.
``plan()`` functions and other non-hot helpers may allocate freely — the
rule keys on the ``_run`` suffix of the enclosing function definition.  A
line may opt out with ``// lint:allow-run-alloc``.

Fourth rule — footprint completeness: every kernel name that appears in a
``LaunchConfig{"..."}`` literal or an ``intern_name("family(...")`` prefix
under the linted roots must have a matching
``simgpu::register_footprint({"name", ...})`` registration somewhere under
``src/`` (per-pass ``(digits)`` suffixes resolve to the bare family name,
mirroring ``simgpu::find_footprint``).  A launch whose kernel has no
footprint is invisible to both the launch-time contract check and the static
plan auditor, so it fails the lint.

A line may opt out of the raw-access rules with a ``// lint:allow-raw-access``
comment (none needed today).  ``--json`` emits the findings as a JSON
document for CI artifact collection.  Run with ``--self-test`` to check the
linter against embedded positive/negative samples.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

LAUNCH_RE = re.compile(r"(?<![\w:])(?:simgpu\s*::\s*)?launch\s*\(")
RAW_ACCESS_RE = re.compile(r"\.\s*(data|host_span)\s*\(")
ESCAPE_RE = re.compile(
    r"\.\s*(unchecked_data|prepaid_reads)\s*(?:<[^<>()]*>\s*)?\("
    r"|(?<![\w:])(raw_view)\s*\("
)
GATE_EVIDENCE_RE = re.compile(
    r"[!=]=\s*nullptr|\.\s*empty\s*\(|warpfast_enabled\s*\(|packed_q_"
    r"|kProxyView"
)
RUN_FN_RE = re.compile(r"(?<![\w:])[A-Za-z_]\w*_run\s*\(")
RUN_ALLOC_RE = re.compile(
    r"(?<![\w:])(?:\w+\s*\.\s*|\w+\s*->\s*|Device\s*::\s*)alloc(?:_zero)?\b"
)
LAUNCHCFG_RE = re.compile(r"(?<!\w)LaunchConfig\b")
STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
INTERN_RE = re.compile(r'intern_name\(\s*\n?\s*"((?:[^"\\]|\\.)*)"')
REGISTER_RE = re.compile(r'register_footprint\(\s*\{\s*"((?:[^"\\]|\\.)*)"')
PASS_SUFFIX_RE = re.compile(r"\(\d*$|\(\d+\)$")
# The gate-evidence walk stops at scopes introduced by these keywords:
# namespace/class bodies are where *sibling* functions live, so evidence
# found there would let a neighboring function vouch for an ungated escape.
STOP_SCOPE_RE = re.compile(r"\b(namespace|class|struct|union|enum)\b")
ALLOW_MARKER = "lint:allow-raw-access"
ALLOW_RUN_ALLOC_MARKER = "lint:allow-run-alloc"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank out comments (and string/char literals unless ``keep_strings``),
    preserving newlines."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            # Keep lint markers visible to the checker.
            chunk = text[i:j]
            out.append(chunk if "lint:allow" in chunk else " " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            if keep_strings:
                out.append(text[i:j])
            else:
                out.append(
                    quote + " " * (j - i - 2) + (quote if j - i >= 2 else "")
                )
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def launch_call_spans(text: str):
    """Yield (start, end) offsets of every launch(...) call expression."""
    for m in LAUNCH_RE.finditer(text):
        depth = 0
        i = m.end() - 1  # the opening paren
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    yield m.end(), i
                    break
            i += 1


def run_fn_body_spans(text: str):
    """Yield (name, start, end) offsets of every ``*_run()`` DEFINITION body.

    A match of ``name_run(`` is a definition when the token after its closing
    paren is an opening brace (calls end in ``;`` or sit inside an
    expression); the span is the brace-matched body.
    """
    for m in RUN_FN_RE.finditer(text):
        depth = 0
        i = m.end() - 1  # the opening paren
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        else:
            continue
        j = i + 1
        while j < len(text) and text[j] in " \t\r\n":
            j += 1
        if j >= len(text) or text[j] != "{":
            continue  # a call or declaration, not a definition
        depth = 0
        k = j
        while k < len(text):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    yield m.group(0).rstrip("(").rstrip(), j, k
                    break
            k += 1


def brace_pairs(text: str):
    """All matched ``{``/``}`` offset pairs (on comment/string-blanked text)."""
    stack = []
    pairs = []
    for i, c in enumerate(text):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            pairs.append((stack.pop(), i))
    return pairs


def enclosing_scopes(pairs, pos: int):
    """Brace scopes containing ``pos``, innermost first."""
    return sorted(
        ((o, c) for o, c in pairs if o < pos <= c), key=lambda p: -p[0]
    )


def matching_close_paren(text: str, open_paren: int) -> int:
    depth = 0
    i = open_paren
    while i < len(text):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def scope_with_header(text: str, open_brace: int) -> int:
    """Offset where the scope's statement header starts: scan back from the
    opening brace past the attached ``if (...)`` / ``for (...)`` / lambda
    intro to the end of the previous statement or scope."""
    i = open_brace - 1
    while i >= 0 and text[i] not in ";{}":
        i -= 1
    return i + 1


def finding(path: str, line: int, rule: str, message: str) -> dict:
    return {"path": path, "line": line, "rule": rule, "message": message}


def lint_text(text: str, path: str):
    """Return a list of finding dicts for one file."""
    clean = strip_comments_and_strings(text)
    lines = clean.splitlines(keepends=True)
    line_starts = [0]
    for ln in lines:
        line_starts.append(line_starts[-1] + len(ln))
    findings = []
    for start, end in launch_call_spans(clean):
        for m in RAW_ACCESS_RE.finditer(clean, start, end):
            line_no = clean.count("\n", 0, m.start()) + 1
            line = lines[line_no - 1] if line_no <= len(lines) else ""
            if ALLOW_MARKER in line:
                continue
            findings.append(finding(
                path, line_no, "raw-access",
                f"raw .{m.group(1)}() inside a kernel lambda; use the "
                "BlockCtx accessors (load/store/atomic_*) or SharedSpan",
            ))
    # Zero-alloc run contract: no Device allocation inside a *_run() body.
    for name, start, end in run_fn_body_spans(clean):
        for m in RUN_ALLOC_RE.finditer(clean, start, end):
            line_no = clean.count("\n", 0, m.start()) + 1
            line = lines[line_no - 1] if line_no <= len(lines) else ""
            if ALLOW_RUN_ALLOC_MARKER in line:
                continue
            findings.append(finding(
                path, line_no, "run-alloc",
                f"device allocation inside {name}(); run() bodies are "
                "zero-alloc — describe the scratch in the plan's "
                "WorkspaceLayout and fetch it with Workspace::get",
            ))
    # Raw-span escapes: unchecked_data()/raw_view()/prepaid_reads() must sit
    # behind a gate — evidenced by a nullptr or empty() check of the
    # unwrapped result, or a warpfast_enabled() test, inside an enclosing
    # brace scope (innermost outward; a scope's if/for header counts as part
    # of it).  Scope-bounded, so a gate in an adjacent function never
    # vouches.
    pairs = brace_pairs(clean)
    for m in ESCAPE_RE.finditer(clean):
        name = m.group(1) or m.group(2)
        line_no = clean.count("\n", 0, m.start()) + 1
        line = lines[line_no - 1] if line_no <= len(lines) else ""
        if ALLOW_MARKER in line:
            continue
        gated = False
        # Definition case: when the escape name heads a function definition
        # (parameter list followed by a `{` body), the gate lives inside the
        # body the header introduces — e.g. raw_view() checking its own
        # unchecked_data() result against nullptr.
        open_paren = clean.find("(", m.start())
        close_paren = matching_close_paren(clean, open_paren)
        if close_paren >= 0:
            j = close_paren + 1
            while j < len(clean) and clean[j] in " \t\r\n":
                j += 1
            if j < len(clean) and clean[j] == "{":
                body = next((p for p in pairs if p[0] == j), None)
                if body and GATE_EVIDENCE_RE.search(clean, j, body[1]):
                    gated = True
        if not gated:
            for open_brace, close_brace in enclosing_scopes(pairs, m.start()):
                lo = scope_with_header(clean, open_brace)
                if STOP_SCOPE_RE.search(clean, lo, open_brace):
                    break  # namespace/class scope: sibling functions live here
                if GATE_EVIDENCE_RE.search(clean, lo, close_brace):
                    gated = True
                    break
        if gated:
            continue
        findings.append(finding(
            path, line_no, "escape-gate",
            f"raw-span escape {name}() with no gate evidence in any "
            "enclosing scope; check the unwrapped result against nullptr or "
            "empty(), or test warpfast_enabled()",
        ))
    return findings


def kernel_family(name: str) -> str:
    """Strip a per-pass ``(digits)`` suffix (or a trailing ``(`` left by an
    intern_name prefix), mirroring simgpu::find_footprint's fallback."""
    return PASS_SUFFIX_RE.sub("", name)


def launched_kernel_names(text: str):
    """Kernel-name spellings launched by one file: ``{family: line}``.

    Collects every string literal inside a ``LaunchConfig{...}`` braced
    initializer (ternary alternatives included) and every string prefix
    passed to ``intern_name(`` (per-pass families end in ``(`` and resolve
    to the bare family name).
    """
    clean = strip_comments_and_strings(text, keep_strings=True)
    names = {}
    for m in LAUNCHCFG_RE.finditer(clean):
        i = clean.find("{", m.end())
        # Only a braced initializer directly after the type (possibly with a
        # variable name between) counts; give up past a statement boundary.
        if i < 0 or ";" in clean[m.end() : i]:
            continue
        depth = 0
        j = i
        while j < len(clean):
            if clean[j] == "{":
                depth += 1
            elif clean[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        for sm in STRING_RE.finditer(clean, i, j):
            family = kernel_family(sm.group(1))
            if family:
                line_no = clean.count("\n", 0, sm.start()) + 1
                names.setdefault(family, line_no)
    for m in INTERN_RE.finditer(clean):
        family = kernel_family(m.group(1))
        if family:
            line_no = clean.count("\n", 0, m.start()) + 1
            names.setdefault(family, line_no)
    return names


def registered_footprint_names(text: str):
    """Kernel names registered via ``register_footprint({"name", ...})``."""
    clean = strip_comments_and_strings(text, keep_strings=True)
    return {m.group(1) for m in REGISTER_RE.finditer(clean)}


def source_files(root: pathlib.Path):
    return sorted(root.rglob("*.hpp")) + sorted(root.rglob("*.cpp"))


def check_footprints(lint_roots, registry_root: pathlib.Path):
    """Flag launched kernel names with no footprint registration anywhere
    under ``registry_root``."""
    registered = set()
    for path in source_files(registry_root):
        registered |= registered_footprint_names(path.read_text())
    findings = []
    for root in lint_roots:
        for path in source_files(root):
            for name, line in sorted(
                launched_kernel_names(path.read_text()).items()
            ):
                if name not in registered:
                    findings.append(finding(
                        str(path), line, "missing-footprint",
                        f"kernel '{name}' is launched but has no "
                        "register_footprint({\"" + name + "\", ...}) "
                        "registration; without one it is invisible to the "
                        "launch-time contract check and the plan auditor",
                    ))
    return findings


def lint_tree(root: pathlib.Path):
    findings = []
    for path in source_files(root):
        findings.extend(lint_text(path.read_text(), str(path)))
    return findings


BAD_SAMPLE = """
void f(simgpu::Device& dev, simgpu::DeviceBuffer<float> buf) {
  simgpu::launch(dev, {"bad", 1, 32}, [=](simgpu::BlockCtx& ctx) {
    buf.data()[0] = 1.0f;            // bypasses accounting
    auto s = buf.host_span();        // ditto
  });
}
"""

GOOD_SAMPLE = """
void g(simgpu::Device& dev, simgpu::DeviceBuffer<float> buf) {
  simgpu::launch(dev, {"good", 1, 32}, [=](simgpu::BlockCtx& ctx) {
    ctx.store(buf, 0, ctx.load(buf, 1));  // string red herring: ".data()"
  });
  buf.data()[0] = 1.0f;  // host-side, outside the launch: allowed
  std::vector<float> host(4);
  use(host.data());
}
"""

ALLOWED_SAMPLE = """
void h(simgpu::Device& dev, simgpu::DeviceBuffer<float> buf) {
  simgpu::launch(dev, {"waived", 1, 32}, [=](simgpu::BlockCtx& ctx) {
    buf.data()[0] = 1.0f;  // lint:allow-raw-access
  });
}
"""


BAD_ESCAPE_SAMPLE = """
void leak(simgpu::SharedSpan<float> s) {
  float* p = s.unchecked_data();
  p[0] = 1.0f;  // never checked, no gate in sight
  auto rv = raw_view(s);
  use(rv);
}
"""

GOOD_ESCAPE_SAMPLE = """
void gated(simgpu::SharedSpan<float> s) {
  float* p = s.unchecked_data();
  if (p != nullptr) p[0] = 1.0f;
  const auto rk = raw_view(s);
  if (!rk.empty()) use(rk);
  if (ctx.warpfast_enabled()) {
    use(raw_view(s).data());  // explicit gate right above
  }
}
"""

# BlockCtx::prepaid_reads() hands out a raw device pointer (bulk-charged
# reads), null off the unsanitized tile path: the same gate rule applies.
BAD_PREPAID_SAMPLE = """
void classify(simgpu::BlockCtx& ctx, simgpu::DeviceBuffer<float> split) {
  const float* s = ctx.prepaid_reads(split, 8);
  use(s[3]);  // dereferenced without the null check
}
"""

GOOD_PREPAID_SAMPLE = """
void classify(simgpu::BlockCtx& ctx, simgpu::DeviceBuffer<float> split) {
  const float* s = ctx.prepaid_reads<float>(split, 8);
  if (s != nullptr) {
    use(s[3]);
  } else {
    use(ctx.load(split, 3));
  }
}
"""

# The old fixed-window heuristic accepted this: the escape in leak() has no
# gate, but a *neighboring* function a few lines below checks a pointer
# against nullptr.  Scope-aware search must still flag leak().
NEIGHBOR_GATE_SAMPLE = """
void leak(simgpu::SharedSpan<float> s) {
  float* p = s.unchecked_data();
  p[0] = 1.0f;
}

void unrelated(float* q) {
  if (q != nullptr) q[0] = 2.0f;
}
"""

# A definition whose body gates its own escape result is clean: the body the
# header introduces counts as a search scope.
DEFINITION_GATE_SAMPLE = """
template <SortableView V>
std::span<typename V::element_type> raw_view(const V& v) {
  auto* p = v.unchecked_data();
  if (p == nullptr) return {};
  return {p, v.size()};
}
"""

# Evidence inside an enclosing *namespace* scope must not vouch — that is
# exactly where sibling functions live.
NAMESPACE_GATE_SAMPLE = """
namespace topk {

void leak(simgpu::SharedSpan<float> s) {
  use(raw_view(s));
}

void sibling(float* q) {
  if (q != nullptr) q[0] = 2.0f;
}

}  // namespace topk
"""

# Evidence in an enclosing scope several nesting levels out still counts.
NESTED_GATE_SAMPLE = """
void nested(simgpu::SharedSpan<float> s, bool on) {
  float* p = s.unchecked_data();
  for (int i = 0; i < 4; ++i) {
    if (on) {
      use(raw_view(s));
    }
  }
  if (p != nullptr) use(p);
}
"""


BAD_RUN_SAMPLE = """
template <typename T>
void foo_run(simgpu::Device& dev, const FooPlan<T>& plan,
             simgpu::Workspace& ws) {
  auto scratch = dev.alloc<float>(plan.n);       // hot-path allocation
  auto zeroed = dev.alloc_zero<int>(4, "hist");  // ditto
}
"""

GOOD_RUN_SAMPLE = """
template <typename T>
FooPlan<T> foo_plan(const Shape& s, simgpu::DeviceSpec const& spec,
                    simgpu::WorkspaceLayout& layout) {
  FooPlan<T> p;
  p.seg = layout.add<float>("foo scratch", s.n);
  return p;
}

template <typename T>
void foo_run(simgpu::Device& dev, const FooPlan<T>& plan,
             simgpu::Workspace& ws) {
  auto scratch = ws.get<float>(plan.seg);
  other_run(dev, plan, ws);  // calling a sibling run() is not a definition
}

// Legacy one-shot wrapper: allocates freely, not a *_run body.
template <typename T>
SelectResult foo_select(simgpu::Device& dev, std::span<const T> in) {
  auto buf = dev.alloc<T>(in.size());
  simgpu::Workspace ws(dev);
  return run_it(dev, buf, ws);
}
"""

ALLOWED_RUN_SAMPLE = """
void bar_run(simgpu::Device& dev) {
  auto dbg = dev.alloc<float>(1);  // lint:allow-run-alloc
}
"""

FOOTPRINT_SAMPLE = """
void registered_and_not(simgpu::Device& dev) {
  simgpu::register_footprint({"Registered", {}});
  simgpu::LaunchConfig a{"Registered", 1, 32};
  simgpu::LaunchConfig b{"Registered(3)", 1, 32};   // family resolves
  simgpu::LaunchConfig c{cond ? "Registered" : "Orphan", 1, 32};
  const auto fam = simgpu::intern_name("OrphanFamily(" + std::to_string(p));
  // Strings in comments never count: LaunchConfig x{"CommentKernel", 1, 1};
}
"""


def self_test() -> int:
    def fail(msg):
        print(f"self-test FAILED: {msg}")
        return 1

    bad = lint_text(BAD_SAMPLE, "<bad>")
    if len(bad) != 2:
        return fail(f"expected 2 findings in BAD_SAMPLE, got {len(bad)}: {bad}")
    good = lint_text(GOOD_SAMPLE, "<good>")
    if good:
        return fail(f"false positives in GOOD_SAMPLE: {good}")
    allowed = lint_text(ALLOWED_SAMPLE, "<allowed>")
    if allowed:
        return fail(f"marker not honoured: {allowed}")
    bad_escape = lint_text(BAD_ESCAPE_SAMPLE, "<bad-escape>")
    if len(bad_escape) != 2:
        return fail(f"expected 2 findings in BAD_ESCAPE_SAMPLE, "
                    f"got {len(bad_escape)}: {bad_escape}")
    good_escape = lint_text(GOOD_ESCAPE_SAMPLE, "<good-escape>")
    if good_escape:
        return fail(f"false positives in GOOD_ESCAPE_SAMPLE: {good_escape}")
    bad_prepaid = lint_text(BAD_PREPAID_SAMPLE, "<bad-prepaid>")
    if len(bad_prepaid) != 1 or bad_prepaid[0]["rule"] != "escape-gate":
        return fail("an ungated prepaid_reads() pointer must be flagged: "
                    f"{bad_prepaid}")
    good_prepaid = lint_text(GOOD_PREPAID_SAMPLE, "<good-prepaid>")
    if good_prepaid:
        return fail(f"false positives in GOOD_PREPAID_SAMPLE: {good_prepaid}")
    neighbor = lint_text(NEIGHBOR_GATE_SAMPLE, "<neighbor-gate>")
    if len(neighbor) != 1 or neighbor[0]["rule"] != "escape-gate":
        return fail("scope awareness: a gate in a neighboring function must "
                    f"not vouch for an ungated escape: {neighbor}")
    definition = lint_text(DEFINITION_GATE_SAMPLE, "<definition-gate>")
    if definition:
        return fail(f"definition-body gate not honoured: {definition}")
    ns = lint_text(NAMESPACE_GATE_SAMPLE, "<namespace-gate>")
    if len(ns) != 1 or ns[0]["rule"] != "escape-gate":
        return fail("namespace-scope evidence must not vouch for an "
                    f"ungated escape: {ns}")
    nested = lint_text(NESTED_GATE_SAMPLE, "<nested-gate>")
    if nested:
        return fail(f"outer-scope gate evidence not honoured: {nested}")
    bad_run = lint_text(BAD_RUN_SAMPLE, "<bad-run>")
    if len(bad_run) != 2:
        return fail(f"expected 2 findings in BAD_RUN_SAMPLE, "
                    f"got {len(bad_run)}: {bad_run}")
    good_run = lint_text(GOOD_RUN_SAMPLE, "<good-run>")
    if good_run:
        return fail(f"false positives in GOOD_RUN_SAMPLE: {good_run}")
    allowed_run = lint_text(ALLOWED_RUN_SAMPLE, "<allowed-run>")
    if allowed_run:
        return fail(f"run-alloc marker not honoured: {allowed_run}")

    launched = launched_kernel_names(FOOTPRINT_SAMPLE)
    if set(launched) != {"Registered", "Orphan", "OrphanFamily"}:
        return fail(f"launched-name extraction wrong: {sorted(launched)}")
    registered = registered_footprint_names(FOOTPRINT_SAMPLE)
    if registered != {"Registered"}:
        return fail(f"registration extraction wrong: {sorted(registered)}")
    missing = {n for n in launched if n not in registered}
    if missing != {"Orphan", "OrphanFamily"}:
        return fail(f"footprint completeness wrong: {sorted(missing)}")

    print("lint_kernels self-test passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("roots", nargs="*", default=["src/topk", "src/core"],
                        help="directories to lint (default: src/topk "
                             "src/core)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON document")
    parser.add_argument("--no-footprints", action="store_true",
                        help="skip the footprint-completeness check")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded linter self-test and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    repo = pathlib.Path(__file__).resolve().parent.parent
    roots = []
    for root in args.roots:
        p = pathlib.Path(root)
        if not p.is_absolute():
            p = repo / p
        if not p.exists():
            print(f"lint_kernels: no such directory: {p}")
            return 2
        roots.append(p)
    findings = []
    for p in roots:
        findings.extend(lint_tree(p))
    if not args.no_footprints:
        findings.extend(check_footprints(roots, repo / "src"))

    if args.json:
        print(json.dumps(
            {"clean": not findings, "count": len(findings),
             "findings": findings}, indent=2))
    else:
        for f in findings:
            print(f"{f['path']}:{f['line']}: [{f['rule']}] {f['message']}")
        if findings:
            print(f"lint_kernels: {len(findings)} finding(s)")
        else:
            print("lint_kernels: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
