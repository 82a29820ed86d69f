#include "obs/ledger.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "obs/json_writer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

namespace csrl {
namespace obs {

namespace {

/// First "model name" value from /proc/cpuinfo, or "" (non-Linux hosts,
/// restricted containers).  Best-effort by design: the fingerprint
/// gates wall-time comparability, nothing correctness-bearing.
std::string probe_cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "";
  std::string model;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) break;
    ++colon;
    while (*colon == ' ' || *colon == '\t') ++colon;
    model = colon;
    while (!model.empty() && (model.back() == '\n' || model.back() == '\r'))
      model.pop_back();
    break;
  }
  std::fclose(f);
  return model;
}

}  // namespace

const HardwareFingerprint& hardware_fingerprint() {
  static const HardwareFingerprint fp = [] {
    HardwareFingerprint h;
    h.hw_threads = std::thread::hardware_concurrency();
    h.cpu_model = probe_cpu_model();
#if defined(__unix__) || defined(__APPLE__)
    utsname names{};
    if (uname(&names) == 0) h.machine = names.machine;
    const long page = sysconf(_SC_PAGESIZE);
    if (page > 0) h.page_size = static_cast<std::uint64_t>(page);
#endif
    return h;
  }();
  return fp;
}

std::string build_git_sha() {
  if (const char* env = std::getenv("CSRL_GIT_SHA"))
    if (*env != '\0') return env;
#ifdef CSRL_BUILD_GIT_SHA
  return CSRL_BUILD_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string ledger_line(const LedgerStamp& stamp,
                        const std::string& report_json) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("csrl-bench-ledger-v1");
  w.key("bench").value(stamp.bench);
  // Wall-clock stamp for history ordering only; the perf gates never
  // read it, so back-to-back runs still diff clean.
  w.key("unix_time")
      .value(static_cast<std::int64_t>(std::time(nullptr)));
  w.key("git_sha").value(build_git_sha());
  w.key("build").begin_object();
  w.key("simd_isa").value(stamp.simd_isa);
  w.key("threads").value(stamp.threads);
  w.key("obs_compiled").value(stamp.obs_compiled);
  w.end_object();
  const HardwareFingerprint& hw = hardware_fingerprint();
  w.key("hardware").begin_object();
  w.key("hw_threads").value(hw.hw_threads);
  w.key("machine").value(hw.machine);
  w.key("cpu_model").value(hw.cpu_model);
  w.key("page_size").value(hw.page_size);
  w.end_object();
  w.key("report").raw(report_json.empty() ? "null" : report_json);
  w.end_object();
  return std::move(w).str();
}

std::string ledger_path() {
  const char* env = std::getenv("CSRL_BENCH_LEDGER");
  if (env == nullptr) return "BENCH_history.jsonl";
  const std::string v(env);
  if (v.empty() || v == "0" || v == "off" || v == "false") return "";
  return v;
}

bool append_ledger_line(const std::string& path, const std::string& line) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(line.data(), 1, line.size(), f);
  const bool newline_ok = std::fputc('\n', f) != EOF;
  std::fclose(f);
  return written == line.size() && newline_ok;
}

}  // namespace obs
}  // namespace csrl
