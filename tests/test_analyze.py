#!/usr/bin/env python3
"""Unit tests for scripts/analyze: tokenizer regressions, the
declaration/call extractor, and one seeded-violation fixture per pass
(layering, include cycle, hot-path alloc/lock/throw/io, waiver accepted
and rejected, plus the ported legacy rules).

Run directly (python3 tests/test_analyze.py) or via ctest (label
`fast`, registered in tests/CMakeLists.txt as analyze_selftest).
"""

import re
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from analyze import cppmodel, passes, report, tokens  # noqa: E402


def ctx(path, text):
    return passes.FileContext(path, text)


def run_on(files):
    """files: {path: text} -> (open_findings, all_findings, hot_report).
    Fixtures define a kernel or two, so the stale-root pass (a whole-tree
    check) stays off here."""
    contexts = {p: ctx(p, t) for p, t in files.items()}
    findings, hot = passes.run_all(contexts, check_roots=False)
    return [f for f in findings if not f.waived], findings, hot


class TokenizerTest(unittest.TestCase):
    def test_raw_string_with_parens_and_quotes(self):
        ts = tokens.tokenize('auto s = R"delim(no "tokens" here; for (;;))delim"; int x;')
        kinds = [(t.kind, t.text) for t in ts.code]
        self.assertIn(("ident", "x"), kinds)
        # Nothing inside the raw string leaks out as tokens.
        self.assertNotIn(("ident", "tokens"), kinds)
        self.assertNotIn(("ident", "for"), kinds)
        self.assertEqual(sum(1 for t in ts.code if t.kind == "str"), 1)

    def test_raw_string_multiline_line_numbers(self):
        ts = tokens.tokenize('auto s = R"(line1\nline2\nline3)";\nint after;')
        after = [t for t in ts.code if t.text == "after"]
        self.assertEqual(after[0].line, 4)

    def test_digit_separators_and_suffixes(self):
        ts = tokens.tokenize("auto a = 1'000'000; auto b = 0x1Fu; auto c = 1.5e-3f;")
        nums = [t.text for t in ts.code if t.kind == "num"]
        self.assertEqual(nums, ["1'000'000", "0x1Fu", "1.5e-3f"])

    def test_template_operators_not_confused(self):
        ts = tokens.tokenize("std::vector<std::vector<double>> m; a >>= 2;")
        # >> closes the template (one token is fine as long as idents survive)
        idents = [t.text for t in ts.code if t.kind == "ident"]
        self.assertIn("m", idents)
        self.assertIn((">>="), [t.text for t in ts.code if t.kind == "punct"])

    def test_if0_block_skipped(self):
        ts = tokens.tokenize(
            "int live;\n#if 0\nint dead;\n#endif\nint alive;\n")
        idents = [t.text for t in ts.code if t.kind == "ident"]
        self.assertIn("live", idents)
        self.assertIn("alive", idents)
        self.assertNotIn("dead", idents)

    def test_if0_else_arm_active(self):
        ts = tokens.tokenize(
            "#if 0\nint dead;\n#else\nint alive;\n#endif\n")
        idents = [t.text for t in ts.code if t.kind == "ident"]
        self.assertNotIn("dead", idents)
        self.assertIn("alive", idents)

    def test_undecidable_condition_keeps_both_arms(self):
        ts = tokens.tokenize(
            "#ifdef FOO\nint a;\n#else\nint b;\n#endif\n")
        idents = [t.text for t in ts.code if t.kind == "ident"]
        # A linter must not silently skip real code.
        self.assertIn("a", idents)

    def test_multiline_macro_does_not_leak_tokens(self):
        ts = tokens.tokenize(
            "#define M(x) \\\n  do { leak(x); } while (0)\nint after;\n")
        idents = [t.text for t in ts.code if t.kind == "ident"]
        self.assertNotIn("leak", idents)
        self.assertEqual([t.line for t in ts.code if t.text == "after"], [3])

    def test_comment_map_for_waivers(self):
        ts = tokens.tokenize("int x;  // lint:allow foo (why)\n")
        self.assertIn("lint:allow foo", ts.comments[1])

    def test_includes(self):
        ts = tokens.tokenize('#include <vector>\n#include "util/mutex.hpp"\n')
        self.assertEqual(ts.includes(),
                         [(1, "vector", True), (2, "util/mutex.hpp", False)])


class ExtractorTest(unittest.TestCase):
    def test_qualified_function_and_loops(self):
        model = cppmodel.build_model("matrix/x.cpp", """
void CsrMatrix::multiply(int n) {
  for (int i = 0; i < n; ++i) {
    helper(i);
  }
  while (n > 0) step(n);
}
""")
        self.assertEqual([f.qualname for f in model.functions],
                         ["CsrMatrix::multiply"])
        self.assertEqual(len(model.functions[0].loops), 2)

    def test_ctor_init_list_not_mistaken_for_name(self):
        model = cppmodel.build_model("a.cpp", """
Widget::Widget(int n)
    : count_(n), data_(n, 0.0) {
  build();
}
""")
        self.assertEqual([f.qualname for f in model.functions],
                         ["Widget::Widget"])

    def test_calls_skip_keywords_and_macros(self):
        model = cppmodel.build_model("a.cpp", """
void f() {
  if (x) { g(); }
  CSRL_COUNT("a/b", 1);
  auto v = static_cast<int>(y);
}
""")
        fn = model.functions[0]
        names = {c.name for c in cppmodel.extract_calls(
            model.stream.code, fn.body[0], fn.body[1])}
        self.assertIn("g", names)
        self.assertNotIn("if", names)
        self.assertNotIn("CSRL_COUNT", names)
        self.assertNotIn("static_cast", names)


class LayerPassTest(unittest.TestCase):
    def test_upward_include_flagged(self):
        opens, _, _ = run_on({
            "util/helper.hpp": '#pragma once\n#include "matrix/csr.hpp"\n',
            "matrix/csr.hpp": "#pragma once\n",
        })
        self.assertEqual([(f.rule, f.file) for f in opens],
                         [("layer", "util/helper.hpp")])

    def test_downward_and_same_dir_ok(self):
        opens, _, _ = run_on({
            "matrix/csr.hpp": '#pragma once\n#include "util/a.hpp"\n'
                              '#include "matrix/simd.hpp"\n',
            "util/a.hpp": "#pragma once\n",
            "matrix/simd.hpp": "#pragma once\n",
        })
        self.assertEqual(opens, [])

    def test_prelude_exempt_but_must_stay_self_contained(self):
        opens, _, _ = run_on({
            "obs/obs.hpp": '#pragma once\n#include "util/annotations.hpp"\n',
            "util/annotations.hpp": "#pragma once\n",
        })
        self.assertEqual(opens, [])
        opens, _, _ = run_on({
            "util/annotations.hpp": '#pragma once\n#include "util/error.hpp"\n',
            "util/error.hpp": "#pragma once\n",
        })
        self.assertEqual([f.rule for f in opens], ["layer"])
        self.assertIn("self-contained", opens[0].message)

    def test_include_cycle_detected(self):
        opens, _, _ = run_on({
            "matrix/a.hpp": '#pragma once\n#include "matrix/b.hpp"\n',
            "matrix/b.hpp": '#pragma once\n#include "matrix/a.hpp"\n',
        })
        self.assertIn("include-cycle", {f.rule for f in opens})


class HotPassTest(unittest.TestCase):
    def test_alloc_in_root_loop_flagged(self):
        opens, _, hot = run_on({"matrix/k.cpp": """
void multiply(int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(i);
  }
}
"""})
        self.assertEqual([f.rule for f in opens], ["hot-alloc"])
        self.assertIn("matrix/k.cpp:multiply", hot["roots"])

    def test_transitive_callee_flagged(self):
        opens, _, hot = run_on({"matrix/k.cpp": """
void helper(int i) {
  auto p = std::make_unique<int>(i);
  mu.lock();
  throw std::runtime_error("x");
}
void multiply(int n) {
  for (int i = 0; i < n; ++i) helper(i);
}
"""})
        rules = sorted(f.rule for f in opens)
        self.assertEqual(rules, ["hot-alloc", "hot-lock", "hot-throw"])
        self.assertIn("matrix/k.cpp:helper", hot["closure"])

    def test_boundary_not_followed(self):
        opens, _, hot = run_on({"matrix/k.cpp": """
void parallel_for(int i) { out.push_back(i); }
void multiply(int n) {
  for (int i = 0; i < n; ++i) parallel_for(i);
}
"""})
        self.assertEqual(opens, [])
        self.assertNotIn("matrix/k.cpp:parallel_for", hot["closure"])

    def test_io_and_container_local_flagged(self):
        opens, _, _ = run_on({"matrix/k.cpp": """
void multiply(int n) {
  for (int i = 0; i < n; ++i) {
    std::vector<double> tmp(n);
    printf("%d", i);
  }
}
"""})
        # The legacy loop-alloc rule fires on the same vector (matrix/
        # is a loop-alloc directory); both reports are correct.
        self.assertEqual(sorted(f.rule for f in opens),
                         ["hot-alloc", "hot-io", "loop-alloc"])

    def test_code_outside_loops_not_flagged_in_root(self):
        opens, _, _ = run_on({"matrix/k.cpp": """
void multiply(int n) {
  out.reserve(n);
  for (int i = 0; i < n; ++i) acc += i;
}
"""})
        self.assertEqual(opens, [])


    def test_root_pattern_matching_nothing_is_a_finding(self):
        contexts = {"matrix/k.cpp": ctx("matrix/k.cpp", """
void multiply(int n) {
  for (int i = 0; i < n; ++i) acc += i;
}
""")}
        patterns = [re.compile(r"^multiply$"), re.compile(r"^run_batch$")]
        with mock.patch.object(passes, "HOT_ROOT_PATTERNS", patterns):
            findings, hot = passes.run_all(contexts)
        self.assertEqual([(f.file, f.rule) for f in findings],
                         [(passes.ANALYZER_FILE, "hot-root-stale")])
        self.assertIn("^run_batch$", findings[0].message)
        self.assertFalse(findings[0].waived)
        self.assertIn("matrix/k.cpp:multiply", hot["roots"])

    def test_every_real_root_pattern_has_a_line(self):
        for pattern in passes.HOT_ROOT_PATTERNS:
            self.assertGreater(passes._pattern_line(pattern), 0,
                               pattern.pattern)


class WaiverTest(unittest.TestCase):
    def test_trailing_waiver_accepted(self):
        opens, alls, _ = run_on({"matrix/k.cpp": """
void multiply(int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(i);  // lint:allow hot-alloc (reserved upfront)
  }
}
"""})
        self.assertEqual(opens, [])
        self.assertTrue(any(f.waived for f in alls))

    def test_comment_line_above_accepted(self):
        opens, _, _ = run_on({"matrix/k.cpp": """
void multiply(int n) {
  for (int i = 0; i < n; ++i) {
    // lint:allow hot-alloc (reserved upfront)
    out.push_back(i);
  }
}
"""})
        self.assertEqual(opens, [])

    def test_waiver_without_justification_rejected(self):
        opens, _, _ = run_on({"matrix/k.cpp": """
void multiply(int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(i);  // lint:allow hot-alloc
  }
}
"""})
        self.assertEqual([f.rule for f in opens], ["hot-alloc"])

    def test_wrong_rule_waiver_rejected(self):
        opens, _, _ = run_on({"matrix/k.cpp": """
void multiply(int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(i);  // lint:allow hot-throw (wrong rule)
  }
}
"""})
        self.assertEqual([f.rule for f in opens], ["hot-alloc"])


class LegacyRulesTest(unittest.TestCase):
    def test_raw_new_flagged_but_deleted_fn_not(self):
        opens, _, _ = run_on({"util/a.cpp":
            "void f() { auto* p = new int; }\n"
            "struct S { S(const S&) = delete; };\n"})
        self.assertEqual([f.rule for f in opens], ["raw-new-delete"])

    def test_float_eq_sentinels_ok_others_flagged(self):
        opens, _, _ = run_on({"util/a.cpp":
            "bool f(double x) { return x == 0.0 || x == 1.0; }\n"
            "bool g(double x) { return x == 0.5; }\n"})
        self.assertEqual([f.rule for f in opens], ["float-eq"])

    def test_pragma_once_missing(self):
        opens, _, _ = run_on({"util/a.hpp": "struct A {};\n"})
        self.assertEqual([f.rule for f in opens], ["pragma-once"])

    def test_obs_name_scheme(self):
        opens, _, _ = run_on({"util/a.cpp":
            'void f() { CSRL_COUNT("solver/iterations", 1); '
            'CSRL_COUNT("Bad Name", 1); }\n'})
        self.assertEqual([f.rule for f in opens], ["obs-name"])

    def test_unordered_iter(self):
        opens, _, _ = run_on({"util/a.cpp":
            "std::unordered_map<int, int> m;\n"
            "void f() { for (auto& kv : m) use(kv); }\n"})
        self.assertEqual([f.rule for f in opens], ["unordered-iter"])

    def test_loop_alloc_only_in_hot_dirs(self):
        src = ("void f(int n) { for (int i = 0; i < n; ++i) {"
               " std::vector<double> v(n); } }\n")
        opens_hot, _, _ = run_on({"matrix/a.cpp": src})
        opens_cold, _, _ = run_on({"io/a.cpp": src})
        self.assertIn("loop-alloc", {f.rule for f in opens_hot})
        self.assertNotIn("loop-alloc", {f.rule for f in opens_cold})

    def test_spmm_blocking(self):
        opens, _, _ = run_on({"ctmc/a.cpp":
            "void f(int n) { for (int i = 0; i < n; ++i)"
            " { m.multiply(x, y); } }\n"})
        self.assertIn("spmm-blocking", {f.rule for f in opens})


class ReportTest(unittest.TestCase):
    def test_report_schema(self):
        _, alls, hot = run_on({"matrix/k.cpp": """
void multiply(int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(i);  // lint:allow hot-alloc (reserved upfront)
    mu.lock();
  }
}
"""})
        r = report.build_report(alls, hot, file_count=1)
        self.assertEqual(r["tool"], "csrlcheck-analyze")
        self.assertEqual(r["files"], 1)
        self.assertEqual(r["summary"]["hot-alloc"], {"open": 0, "waived": 1})
        self.assertEqual(r["hot_set"]["violations"]["hot-lock"], 1)
        self.assertEqual(r["hot_set"]["violations"]["hot-alloc"], 0)
        self.assertTrue(r["hot_set"]["roots"])


class RealTreeTest(unittest.TestCase):
    """The analyzer's acceptance bar on the actual sources: zero open
    findings, a populated hot closure, and every kernel root present."""

    @classmethod
    def setUpClass(cls):
        src = Path(__file__).resolve().parent.parent / "src"
        files = {}
        for p in sorted(src.rglob("*")):
            if p.suffix in passes.CPP_SUFFIXES:
                files[p.relative_to(src).as_posix()] = p.read_text()
        cls.contexts = {p: ctx(p, t) for p, t in files.items()}
        cls.findings, cls.hot = passes.run_all(cls.contexts)

    def test_tree_is_clean(self):
        opens = [f for f in self.findings if not f.waived]
        self.assertEqual(opens, [],
                         "\n".join(f"{f.file}:{f.line} [{f.rule}] {f.message}"
                                   for f in opens))

    def test_hot_closure_covers_kernels(self):
        roots = set(self.hot["roots"])
        for expected in ("matrix/csr.cpp:CsrMatrix::multiply",
                         "matrix/solvers.cpp:gauss_seidel_sweep",
                         "ctmc/uniformisation.cpp:run_batch",
                         "ctmc/uniformisation.cpp:accumulate_series",
                         "mrm/lumping.cpp:sign_states"):
            self.assertIn(expected, roots)
        self.assertGreater(len(self.hot["closure"]), len(roots))

    def test_no_open_hot_violations(self):
        for rule in report.HOT_RULES:
            open_count = sum(1 for f in self.findings
                             if f.rule == rule and not f.waived)
            self.assertEqual(open_count, 0, rule)


if __name__ == "__main__":
    unittest.main()
