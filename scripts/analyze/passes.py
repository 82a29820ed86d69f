"""Analysis passes: legacy lint rules, the layer/include graph, and the
hot-set call-graph closure.

Every pass produces ``Finding(file, line, rule, message)`` records and
honours the one waiver syntax::

    // lint:allow <rule> (<justification>)

trailing on the offending line or on a comment-only line directly above
it.  The justification is mandatory so waivers stay auditable.

Rules
-----
Line-based (ported from the original regex linter):
  raw-new-delete, float-eq, unordered-iter, pragma-once, obs-name,
  loop-alloc, spmm-blocking — see the per-rule messages for rationale.

Graph-based (new in this framework):
  layer          An #include that points *up* the architecture contract
                 ``obs < util < {logic, matrix} < ctmc < mrm <
                 {srn, io} < {core, models} < service``.  Includes
                 may only point at the same top-level directory or at a
                 strictly lower layer.  Exemption: the prelude headers
                 (util/annotations.hpp, util/mutex.hpp) are includable
                 from anywhere; the analyzer verifies they stay
                 self-contained (system headers and other prelude
                 headers only).
  include-cycle  A cycle in the file-level include graph.
  hot-alloc      An allocation (new / make_unique / make_shared /
                 push_back / emplace_back / resize / reserve /
                 to_string / vector-or-string local) reachable from a
                 hot-set loop body.
  hot-lock       A mutex acquisition (lock_guard / unique_lock /
                 scoped_lock / shared_lock / MutexLock / .lock() /
                 try_lock) reachable from a hot-set loop body.
  hot-throw      A `throw` reachable from a hot-set loop body.
  hot-io         An I/O call (printf family, iostreams, fstreams)
                 reachable from a hot-set loop body.
  hot-root-stale A HOT_ROOT_PATTERNS entry that matches no function in
                 the analyzed tree (reported against this file), so a
                 renamed or deleted kernel cannot silently shrink the
                 hot set.

The hot set is rooted at the kernel entry points by name (multiply,
multiply_left, multiply_fused, the phase-lane
multiply_phase_fused and the CSR lane product multiply_lanes_row,
accumulate_series, the solver sweeps, run_batch,
all_starts_points) and closed over calls to
functions defined in the analyzed tree, resolved same-file, then
same-directory, then unique-global.  Scheduling boundaries
(parallel_for / parallel_reduce) are not followed: work distribution
happens outside the measured loops by construction and has its own
runtime pin (bit-identical results across thread counts).
"""

import re
from dataclasses import dataclass
from pathlib import Path

from . import cppmodel

# --------------------------------------------------------------------------
# Shared: findings + waivers
# --------------------------------------------------------------------------

CPP_SUFFIXES = {".cpp", ".hpp"}

WAIVER_RE = re.compile(r"//\s*lint:allow\s+([a-z-]+)\s*\(.+\)")


@dataclass(frozen=True)
class Finding:
    file: str      # repo-relative path
    line: int      # 1-based
    rule: str
    message: str
    waived: bool = False


class FileContext:
    """Everything the passes need about one source file."""

    def __init__(self, rel_path, text):
        self.path = rel_path           # repo-relative, posix separators
        self.text = text
        self.lines = text.splitlines()
        self.model = cppmodel.build_model(rel_path, text)
        self.stream = self.model.stream
        # Lines that carry at least one code token (for "comment-only
        # line above" waiver placement).
        self.code_lines = {t.line for t in self.stream.tokens}
        # Legacy passes work on comment/string-stripped lines.
        self.stripped = []
        in_block = False
        for raw in self.lines:
            code, comment, in_block = strip_comments_and_strings(raw, in_block)
            self.stripped.append((code, comment))

    def waived_at(self, rule, line):
        """Waiver trailing on `line` or on a comment-only line above."""
        if _comment_waives(rule, self.stream.comments.get(line, "")):
            return True
        above = line - 1
        return above in self.stream.comments and \
            above not in self.code_lines and \
            _comment_waives(rule, self.stream.comments[above])


def _comment_waives(rule, comment_text):
    m = WAIVER_RE.search(comment_text)
    return m is not None and m.group(1) == rule


def finding(ctx, line, rule, message):
    return Finding(ctx.path, line, rule, message,
                   waived=ctx.waived_at(rule, line))


# --------------------------------------------------------------------------
# Legacy line-based passes (ported from the original regex linter)
# --------------------------------------------------------------------------

EXACT_SENTINELS = {"0.0", "1.0", "0.", "1.", ".0"}
FLOAT_LITERAL = r"-?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?"
FLOAT_EQ_RE = re.compile(
    r"(?:[=!]=\s*(" + FLOAT_LITERAL + r"))|(?:(" + FLOAT_LITERAL + r")\s*[=!]=)"
)
RAW_NEW_RE = re.compile(r"\bnew\b\s+[A-Za-z_:<]")
RAW_DELETE_RE = re.compile(r"\bdelete\b\s*(\[\s*\])?\s*[A-Za-z_(]")
DELETED_FN_RE = re.compile(r"=\s*delete\s*[;,)]")
OBS_SITE_RE = re.compile(r"\bCSRL_(?:SPAN|COUNT|GAUGE|HIST)\s*\(\s*\"([^\"]*)\"")
OBS_NAME_RE = re.compile(r"^[a-z0-9_]+(/[a-z0-9_]+)*$")
LOOP_ALLOC_DIRS = {"matrix", "ctmc"}
LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(")
VECTOR_DOUBLE_DECL_RE = re.compile(r"\bstd::vector<double>\s+\w+")
SPMM_BLOCKING_DIRS = {"engines", "ctmc"}
ONE_RHS_PRODUCT_RE = re.compile(r"\.\s*multiply(?:_left|_fused)?\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;{=(]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;:)]+:\s*(\w+)\s*\)")


def strip_comments_and_strings(line, in_block_comment):
    """Blank out comment and string-literal contents, preserving column
    positions, and return (code, trailing_comment, still_in_block)."""
    out = []
    comment = ""
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                out.append(" " * (n - i))
                i = n
            else:
                out.append(" " * (end + 2 - i))
                i = end + 2
                in_block_comment = False
            continue
        ch = line[i]
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            comment = line[i:]
            out.append(" " * (n - i))
            break
        if ch == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            out.append("  ")
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), comment, in_block_comment


def loop_pattern_lines(stripped_lines, pattern):
    """Line numbers (1-based) of `pattern` matches inside for/while loop
    bodies, tracked by brace depth across the file."""
    hits = []
    depth = 0
    body_depths = []
    awaiting_body = False
    head_parens = 0
    for lineno, (code, _comment) in enumerate(stripped_lines, start=1):
        head_starts = {m.start() for m in LOOP_HEAD_RE.finditer(code)}
        decl_starts = {m.start() for m in pattern.finditer(code)}
        for pos, ch in enumerate(code):
            if pos in head_starts:
                awaiting_body = True
                head_parens = 0
            if pos in decl_starts and body_depths:
                hits.append(lineno)
            if ch == "(":
                if awaiting_body:
                    head_parens += 1
            elif ch == ")":
                if awaiting_body and head_parens > 0:
                    head_parens -= 1
            elif ch == "{":
                depth += 1
                if awaiting_body and head_parens == 0:
                    body_depths.append(depth)
                    awaiting_body = False
            elif ch == ";":
                if awaiting_body and head_parens == 0:
                    awaiting_body = False
            elif ch == "}":
                if body_depths and body_depths[-1] == depth:
                    body_depths.pop()
                depth -= 1
    return hits


def _is_sentinel(literal):
    return literal.lstrip("-").rstrip("fF") in EXACT_SENTINELS


def legacy_pass(ctx):
    """All line-based rules on one file."""
    findings = []
    parts = set(ctx.path.split("/"))

    if ctx.path.endswith(".hpp") and "#pragma once" not in ctx.text:
        findings.append(finding(ctx, 1, "pragma-once",
                                "header lacks #pragma once"))

    unordered_names = set()
    for code, _comment in ctx.stripped:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))

    if LOOP_ALLOC_DIRS & parts:
        for line in loop_pattern_lines(ctx.stripped, VECTOR_DOUBLE_DECL_RE):
            findings.append(finding(
                ctx, line, "loop-alloc",
                "std::vector<double> constructed inside a loop body"
                " (hoist it out of the loop)"))

    if SPMM_BLOCKING_DIRS & parts:
        for line in loop_pattern_lines(ctx.stripped, ONE_RHS_PRODUCT_RE):
            findings.append(finding(
                ctx, line, "spmm-blocking",
                "one-RHS product inside a loop body (group the right-hand"
                " sides through the lane product multiply_lanes_row of"
                " matrix/spmm.cpp, or waive with the loop's single-vector"
                " justification)"))

    for lineno, (code, _comment) in enumerate(ctx.stripped, start=1):
        if RAW_NEW_RE.search(code):
            findings.append(finding(ctx, lineno, "raw-new-delete",
                                    "raw `new` expression"))
        if RAW_DELETE_RE.search(code) and not DELETED_FN_RE.search(code):
            findings.append(finding(ctx, lineno, "raw-new-delete",
                                    "raw `delete` expression"))

        for m in FLOAT_EQ_RE.finditer(code):
            literal = m.group(1) or m.group(2)
            if not _is_sentinel(literal):
                findings.append(finding(
                    ctx, lineno, "float-eq",
                    f"exact comparison with float literal {literal}"))

        raw = ctx.lines[lineno - 1]
        for m in OBS_SITE_RE.finditer(raw):
            if not code.startswith("CSRL_", m.start()):
                continue  # the site text sits inside a comment
            name = m.group(1)
            if not OBS_NAME_RE.match(name):
                findings.append(finding(
                    ctx, lineno, "obs-name",
                    f'observability name "{name}" violates'
                    " ^[a-z0-9_]+(/[a-z0-9_]+)*$"))

        for m in RANGE_FOR_RE.finditer(code):
            if m.group(1) in unordered_names:
                findings.append(finding(
                    ctx, lineno, "unordered-iter",
                    f"iteration over unordered container `{m.group(1)}`"
                    " (unspecified order)"))

    return findings


# --------------------------------------------------------------------------
# Layer / include-graph pass
# --------------------------------------------------------------------------

# The architecture contract.  Equal layer numbers are siblings: they may
# not include each other (only same-directory or strictly lower).
LAYERS = {
    "obs": 0,
    "util": 1,
    "logic": 2,
    "matrix": 2,
    "ctmc": 3,
    "mrm": 4,
    "srn": 5,
    "io": 5,
    "core": 6,
    "models": 6,
    "service": 7,
}

# Prelude headers: includable from any layer (even below util), provided
# they stay self-contained — system headers and other prelude headers
# only.  The layer pass verifies that containment on every run.
PRELUDE = {"util/annotations.hpp", "util/mutex.hpp"}


def _top_dir(rel_path):
    """First path component of a repo-relative include ("matrix" for
    matrix/csr.hpp), or None for flat paths."""
    if "/" in rel_path:
        return rel_path.split("/", 1)[0]
    return None


def layer_pass(contexts):
    """Upward-include and cycle findings over the whole file set.

    `contexts` maps repo-relative path (relative to src/, e.g.
    "matrix/csr.hpp") to FileContext.
    """
    findings = []

    # Prelude self-containment: everything may include them only because
    # they pull in nothing project-local beyond each other.
    for prelude in sorted(PRELUDE):
        ctx = contexts.get(prelude)
        if ctx is None:
            continue
        for line, inc, is_system in ctx.model.includes:
            if not is_system and inc not in PRELUDE:
                findings.append(finding(
                    ctx, line, "layer",
                    f'prelude header includes project header "{inc}" —'
                    " prelude headers must stay self-contained"
                    " (system headers and other prelude headers only)"))

    for path, ctx in sorted(contexts.items()):
        src_top = _top_dir(path)
        if src_top not in LAYERS:
            continue
        for line, inc, is_system in ctx.model.includes:
            if is_system:
                continue
            if inc in PRELUDE:
                continue
            inc_top = _top_dir(inc)
            if inc_top is None or inc_top not in LAYERS:
                continue
            if inc_top == src_top:
                continue
            if LAYERS[inc_top] < LAYERS[src_top]:
                continue
            direction = "upward" if LAYERS[inc_top] > LAYERS[src_top] \
                else "sibling"
            findings.append(finding(
                ctx, line, "layer",
                f'{direction} include "{inc}" from layer'
                f" {src_top}:{LAYERS[src_top]} to {inc_top}:{LAYERS[inc_top]}"
                " — the architecture contract allows same-directory or"
                " strictly lower-layer includes only"))

    # File-level include cycles (DFS, iterative).
    graph = {
        path: [inc for _line, inc, is_sys in ctx.model.includes
               if not is_sys and inc in contexts]
        for path, ctx in contexts.items()
    }
    state = {}  # path -> 1 (on stack) | 2 (done)
    for start in sorted(graph):
        if state.get(start):
            continue
        stack = [(start, iter(graph[start]))]
        state[start] = 1
        chain = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 1:
                    cycle = chain[chain.index(nxt):] + [nxt]
                    ctx = contexts[node]
                    inc_line = next(
                        (ln for ln, inc, _s in ctx.model.includes
                         if inc == nxt), 1)
                    findings.append(finding(
                        ctx, inc_line, "include-cycle",
                        "include cycle: " + " -> ".join(cycle)))
                    continue
                if state.get(nxt) == 2:
                    continue
                state[nxt] = 1
                chain.append(nxt)
                stack.append((nxt, iter(graph[nxt])))
                advanced = True
                break
            if not advanced:
                state[node] = 2
                chain.pop()
                stack.pop()
    return findings


# --------------------------------------------------------------------------
# Hot-set closure pass
# --------------------------------------------------------------------------

# Kernel entry points, by unqualified function name.  Anything matching
# becomes a hot root; its loop bodies (and the full bodies of everything
# those loops call, transitively) are the hot region.
HOT_ROOT_PATTERNS = [
    re.compile(p) for p in (
        r"^multiply(_left|_fused)?$",
        r"^multiply_lanes_row$",
        r"^multiply_phase_fused$",
        r"^accumulate_series$",
        r"^gauss_seidel_sweep$",
        r"^bicgstab$",
        r"^solve_fixpoint$",
        r"^power_stationary$",
        r"^run_batch$",
        r"^all_starts_points$",
        r"^sign_states$",
    )
]

# Call boundaries the closure does not cross:
#   parallel_for / parallel_reduce — scheduling; work distribution sits
#     outside the measured loops and has its own runtime pin
#     (bit-identical results across thread counts);
#   poisson_weights — Fox-Glynn window construction; runs once per
#     horizon window in the setup loops *before* the series iteration
#     starts, O(right-left) per window, amortised over the
#     steps-times-nnz series work.  Its own call sites (the
#     windows.push_back setup loops) remain visible to the detectors.
CLOSURE_BOUNDARIES = {"parallel_for", "parallel_reduce", "poisson_weights"}

ALLOC_CALLS = {"make_unique", "make_shared", "push_back", "emplace_back",
               "resize", "reserve", "to_string"}
LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock",
              "MutexLock"}
LOCK_CALLS = {"lock", "try_lock", "lock_shared"}
IO_NAMES = {"printf", "fprintf", "sprintf", "snprintf", "puts", "putchar",
            "fputs", "fopen", "fclose", "fread", "fwrite", "getline",
            "cout", "cerr", "clog", "ofstream", "ifstream", "fstream",
            "stringstream", "ostringstream"}
CONTAINER_DECL_TYPES = {"vector", "string", "deque", "map", "set",
                        "unordered_map", "unordered_set"}


def _is_hot_root(fn):
    return any(p.match(fn.name) for p in HOT_ROOT_PATTERNS)


# Where hot-root-stale findings point: the pattern's line in this file.
ANALYZER_FILE = "scripts/analyze/passes.py"


def _pattern_line(pattern):
    source = Path(__file__).read_text(encoding="utf-8").splitlines()
    needle = f'r"{pattern.pattern}"'
    for number, line in enumerate(source, start=1):
        if needle in line:
            return number
    return 0


def stale_root_pass(contexts):
    """One hot-root-stale finding per root pattern that matches no
    function defined in the analyzed tree."""
    names = {fn.name for ctx in contexts.values() for fn in ctx.model.functions}
    return [
        Finding(ANALYZER_FILE, _pattern_line(pattern), "hot-root-stale",
                f"hot root pattern {pattern.pattern!r} matches no function; "
                "drop it from HOT_ROOT_PATTERNS or restore the kernel")
        for pattern in HOT_ROOT_PATTERNS
        if not any(pattern.match(name) for name in names)
    ]


def _resolve_callee(call, caller, index_by_file, index_by_dir, index_global):
    """Same file, then same directory, then unique global; None when the
    name is unknown or ambiguous (heuristic stays conservative: it never
    guesses between overload homes)."""
    if call.name in CLOSURE_BOUNDARIES:
        return None
    fns = index_by_file.get((caller.file, call.name))
    if fns:
        return fns[0]
    caller_dir = caller.file.rsplit("/", 1)[0] if "/" in caller.file else ""
    fns = index_by_dir.get((caller_dir, call.name))
    if fns and len({f.file for f in fns}) == 1:
        return fns[0]
    fns = index_global.get(call.name)
    if fns and len(fns) == 1:
        return fns[0]
    return None


class HotRegion:
    """One contiguous hot token range inside a function."""

    def __init__(self, fn, ctx, start, end, why):
        self.fn = fn
        self.ctx = ctx
        self.start = start
        self.end = end
        self.why = why  # "loop body" | "called from hot region"


def hot_pass(contexts):
    """Closure + detectors.  Returns (findings, report_dict)."""
    # Indexes over every function definition in the tree.
    index_by_file = {}
    index_by_dir = {}
    index_global = {}
    fn_ctx = {}
    for path, ctx in contexts.items():
        for fn in ctx.model.functions:
            fn_ctx[id(fn)] = ctx
            index_by_file.setdefault((path, fn.name), []).append(fn)
            d = path.rsplit("/", 1)[0] if "/" in path else ""
            index_by_dir.setdefault((d, fn.name), []).append(fn)
            index_global.setdefault(fn.name, []).append(fn)

    roots = [fn for fns in index_global.values() for fn in fns
             if _is_hot_root(fn)]

    # Seed: loop bodies of every root.
    regions = []
    hot_fns = {}  # qualname@file -> reason
    for fn in roots:
        hot_fns[f"{fn.file}:{fn.qualname}"] = "root"
        for start, end in fn.loops:
            regions.append(HotRegion(fn, fn_ctx[id(fn)], start, end,
                                     "loop body"))

    # Close over calls: a function called from a hot region is hot in
    # its entirety (it runs once per loop iteration).
    worklist = list(regions)
    edges = []
    while worklist:
        region = worklist.pop()
        code = region.ctx.stream.code
        for call in cppmodel.extract_calls(code, region.start, region.end):
            callee = _resolve_callee(call, region.fn, index_by_file,
                                     index_by_dir, index_global)
            if callee is None:
                continue
            key = f"{callee.file}:{callee.qualname}"
            edges.append({
                "from": f"{region.fn.file}:{region.fn.qualname}",
                "to": key,
                "line": call.line,
            })
            if key in hot_fns:
                continue
            hot_fns[key] = f"called from {region.fn.qualname}"
            new_region = HotRegion(callee, fn_ctx[id(callee)],
                                   callee.body[0], callee.body[1],
                                   "called from hot region")
            regions.append(new_region)
            worklist.append(new_region)

    findings = _hot_detectors(regions)
    report = {
        "roots": sorted(f"{fn.file}:{fn.qualname}" for fn in roots),
        "closure": {k: v for k, v in sorted(hot_fns.items())},
        "edges": edges,
        "regions": len(regions),
    }
    return findings, report


def _hot_detectors(regions):
    findings = []
    seen = set()  # (file, line, rule) — overlapping regions dedup

    def emit(ctx, line, rule, message, fn):
        key = (ctx.path, line, rule)
        if key in seen:
            return
        seen.add(key)
        findings.append(finding(
            ctx, line, rule,
            f"{message} inside the hot set (reached via {fn.qualname})"))

    for region in regions:
        ctx = region.ctx
        code = ctx.stream.code
        n = len(code)
        i = region.start
        while i <= region.end and i < n:
            t = code[i]
            if t.kind == "ident":
                is_call = cppmodel.call_opens_at(code, i,
                                                 min(region.end, n - 1))
                prev = code[i - 1] if i > 0 else None
                is_member = prev is not None and prev.kind == "punct" and \
                    prev.text in (".", "->")

                if t.text == "new":
                    emit(ctx, t.line, "hot-alloc", "`new` expression",
                         region.fn)
                elif t.text == "throw":
                    emit(ctx, t.line, "hot-throw", "`throw` statement",
                         region.fn)
                elif is_call and t.text in ALLOC_CALLS:
                    emit(ctx, t.line, "hot-alloc",
                         f"allocating call `{t.text}()`", region.fn)
                elif is_call and is_member and t.text in LOCK_CALLS:
                    emit(ctx, t.line, "hot-lock",
                         f"mutex acquisition `.{t.text}()`", region.fn)
                elif t.text in LOCK_TYPES and not is_member:
                    emit(ctx, t.line, "hot-lock",
                         f"lock object `{t.text}`", region.fn)
                elif t.text in IO_NAMES and not is_member:
                    emit(ctx, t.line, "hot-io",
                         f"I/O facility `{t.text}`", region.fn)
                elif t.text in CONTAINER_DECL_TYPES and not is_member:
                    line = _container_decl(code, i, region.end)
                    if line is not None:
                        emit(ctx, line, "hot-alloc",
                             f"`std::{t.text}` local constructed in the"
                             " hot region", region.fn)
            i += 1
    return findings


def _container_decl(code, i, end):
    """Detect `std::vector<...> name` / `std::string name` declarations
    at code[i] (i points at the container ident).  Returns the line of
    the declared name, or None when the ident is a type mention only
    (parameter, template argument, return type use, member access)."""
    if i < 2 or code[i - 1].text != "::" or code[i - 2].text != "std":
        return None
    j = i + 1
    if j <= end and code[j].kind == "punct" and code[j].text == "<":
        depth = 0
        while j <= end:
            t = code[j]
            if t.kind == "punct":
                if t.text == "<":
                    depth += 1
                elif t.text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif t.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        break
                elif t.text in (";", "{"):
                    return None
            j += 1
        j += 1
    if j > end or code[j].kind != "ident":
        return None
    name_tok = code[j]
    after = code[j + 1] if j + 1 <= end else None
    if after is None or after.kind != "punct":
        return None
    if after.text in (";", "=", "(", "{"):
        # `std::vector<double> tmp;` / `... tmp(n);` / `... tmp = ...;`
        # A reference/pointer binding (`std::vector<double>& v = ...`)
        # never reaches here: `&`/`*` break the ident-after-type shape.
        return name_tok.line
    return None


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def run_all(contexts, check_roots=True):
    """Run every pass.  Returns (findings, hot_report) where findings
    includes waived records (filtered by the caller for exit status but
    kept in the JSON report for auditability).  `check_roots` runs the
    stale-root pass, which only makes sense on the whole tree (fixtures
    that define a single kernel turn it off)."""
    findings = []
    for _path, ctx in sorted(contexts.items()):
        findings.extend(legacy_pass(ctx))
    findings.extend(layer_pass(contexts))
    hot_findings, hot_report = hot_pass(contexts)
    findings.extend(hot_findings)
    if check_roots:
        findings.extend(stale_root_pass(contexts))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, hot_report
