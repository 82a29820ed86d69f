// Bench run ledger: the repo's performance trajectory, one JSON line
// per bench invocation.
//
// Every bench binary (through BenchObs in bench/bench_obs.hpp) appends
// a "csrl-bench-ledger-v1" line to BENCH_history.jsonl stamping its
// report with the git SHA the binary was built from, the build
// configuration that shaped the numbers (SIMD ISA, thread count, whether
// obs sites were compiled in) and a hardware fingerprint — everything
// scripts/perf needs to decide which historical entries are comparable
// before fitting noise bands over their medians.
// Deterministic counters (spmv counts, cost model totals) are valid
// across hardware and thread counts by design; wall-clock entries are
// only banded against entries with a matching fingerprint.
//
// Layering: obs sits at the bottom of the include DAG, below util and
// matrix, so the build-flag fields it cannot discover itself (the SIMD
// ISA string lives in matrix/simd.hpp) arrive caller-provided in
// LedgerStamp.  The git SHA and hardware fingerprint are resolved here.
#pragma once

#include <cstdint>
#include <string>

namespace csrl {
namespace obs {

/// Caller-provided build configuration for one ledger line.  BenchObs
/// fills it from csrl::simd_isa() and the thread pool; fields default
/// to "unknown"/0 so partial stamps still parse.
struct LedgerStamp {
  std::string bench;       // bench name, e.g. "kernels"
  std::string simd_isa;    // e.g. "avx2", "scalar"
  std::uint64_t threads = 0;
  bool obs_compiled = true;
};

/// Host identity for comparability decisions: logical CPU count,
/// machine architecture (uname), the CPU model string when exposed by
/// the OS, and the page size.  Intentionally coarse — it gates which
/// wall-time entries may be compared, it does not try to be unique.
struct HardwareFingerprint {
  std::uint64_t hw_threads = 0;
  std::string machine;    // e.g. "x86_64"
  std::string cpu_model;  // e.g. "AMD EPYC ...", "" when unavailable
  std::uint64_t page_size = 0;
};

/// Probe the host (cached after the first call).
const HardwareFingerprint& hardware_fingerprint();

/// The git SHA to stamp ledger lines with: the CSRL_GIT_SHA environment
/// variable when set (CI passes the exact checkout), else the SHA baked
/// in at configure time (the CSRL_BUILD_GIT_SHA compile definition on
/// this translation unit), else "unknown".
std::string build_git_sha();

/// One complete "csrl-bench-ledger-v1" line (no trailing newline):
/// schema, bench name, unix timestamp, git SHA, build block, hardware
/// block, and the bench's own report document embedded verbatim under
/// "report".  `report_json` must be a complete JSON value on one line
/// (BenchObs documents are).
std::string ledger_line(const LedgerStamp& stamp,
                        const std::string& report_json);

/// Where ledger lines go: the CSRL_BENCH_LEDGER environment variable
/// when set ("0"/"off"/"false"/"" disable the ledger — returns empty),
/// else "BENCH_history.jsonl" in the working directory.
std::string ledger_path();

/// Append `line` plus a newline to `path`; returns false on I/O failure
/// (benches warn but never fail a gate over a ledger write).
bool append_ledger_line(const std::string& path, const std::string& line);

}  // namespace obs
}  // namespace csrl
