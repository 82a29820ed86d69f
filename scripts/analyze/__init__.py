"""csrlcheck static analyzer (DESIGN.md section 3g).

A call-graph-aware architecture analyzer replacing the original
bare-regex linter: a real C++ tokenizer plus a lightweight declaration/call
extractor feed

  * an include/layer graph that enforces the architecture contract
    (no cycles, no upward includes — see passes.LAYERS), and
  * a heuristic call graph that computes the transitive closure of the
    hot set (SpMV/SpMM kernels, solver sweeps, uniformisation series,
    Sericola/discretisation sweeps) and statically rejects any reachable
    allocation, mutex acquisition, throw or I/O call.

The legacy lint rules (raw-new-delete, float-eq, unordered-iter,
pragma-once, obs-name, loop-alloc, spmm-blocking) are passes of the same
framework: one analyzer, one `// lint:allow <rule> (<justification>)`
waiver syntax, one machine-readable findings report.

Entry points: `python3 scripts/analyze/run.py src` (or the `analyze`
CMake target, which also writes build/ANALYZE_report.json).
"""

__all__ = ["tokens", "cppmodel", "passes", "report", "cli"]
