"""Command-line driver for the csrlcheck analyzer.

Usage:
    python3 scripts/analyze/run.py DIR [DIR...] [--report PATH] [--quiet]

Analyzes every .cpp/.hpp under the given directories (or single files),
prints human-readable findings, optionally writes the JSON report, and
exits 1 when any unwaived finding survives.

Paths in findings are reported relative to the common source root so
the layer pass can read the architecture from them: pass `src` (the
usual invocation) and files appear as e.g. matrix/csr.hpp.
"""

import argparse
import sys
from pathlib import Path

from . import passes, report


def gather_files(args_paths):
    """(root, [files]) — root is the directory include paths are
    relative to (`src` itself when `src` is the argument)."""
    files = []
    roots = []
    for arg in args_paths:
        p = Path(arg)
        if p.is_file():
            files.append(p)
            roots.append(p.parent)
        elif p.is_dir():
            roots.append(p)
            files.extend(sorted(
                f for f in p.rglob("*") if f.suffix in passes.CPP_SUFFIXES))
        else:
            print(f"analyze: no such path: {arg}", file=sys.stderr)
            return None, None
    if not roots:
        return None, None
    root = roots[0]
    return root, files


def load_contexts(root, files):
    contexts = {}
    for f in files:
        try:
            rel = f.relative_to(root).as_posix()
        except ValueError:
            rel = f.as_posix()
        contexts[rel] = passes.FileContext(rel, f.read_text(encoding="utf-8"))
    return contexts


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="+", help="directories or files")
    parser.add_argument("--report", metavar="PATH",
                        help="write the JSON findings report here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-finding lines")
    args = parser.parse_args(argv)

    root, files = gather_files(args.paths)
    if root is None:
        return 2
    contexts = load_contexts(root, files)
    findings, hot_report = passes.run_all(contexts)

    open_findings = [f for f in findings if not f.waived]
    waived = [f for f in findings if f.waived]

    if not args.quiet:
        for f in open_findings:
            where = f.file if f.file == passes.ANALYZER_FILE \
                else f"{root}/{f.file}"
            print(f"{where}:{f.line}: [{f.rule}] {f.message}")

    if args.report:
        report.write_report(
            report.build_report(findings, hot_report, len(files)),
            args.report)

    hot = hot_report
    print(
        f"analyze: {len(files)} files, {len(hot['roots'])} hot roots,"
        f" {len(hot['closure'])} functions in the hot closure,"
        f" {len(open_findings)} open finding(s), {len(waived)} waived",
        file=sys.stderr if open_findings else sys.stdout)
    return 1 if open_findings else 0
