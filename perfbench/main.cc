// h2bench: runs one named workload and prints its result.
//
//   h2bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>] [--commit <sha>]
//
// Workloads: serve_keepalive, serve_push_churn, scan_default, scan_faulted.
// Human-readable lines start with '#'. The last two lines of stdout are a
// {"_meta": ...} object (machine, build, seed, workload shape) and the
// result: {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <sys/utsname.h>
#include <thread>

#include "perfbench/workloads.h"

namespace {

using h2r::bench::json_escape;
using h2r::bench::json_number;
using h2r::bench::RunArgs;
using h2r::bench::WorkloadResult;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string kernel() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: h2bench --workload <serve_keepalive|serve_push_churn|"
               "scan_default|scan_faulted> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--commit <sha>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string workload, commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1) return usage();

  const std::map<std::string, WorkloadResult (*)(const RunArgs&)> workloads{
      {"serve_keepalive", h2r::bench::run_serve_keepalive},
      {"serve_push_churn", h2r::bench::run_serve_push_churn},
      {"scan_default", h2r::bench::run_scan_default},
      {"scan_faulted", h2r::bench::run_scan_faulted},
  };
  const auto it = workloads.find(workload);
  if (it == workloads.end()) return usage();

  WorkloadResult r = it->second(args);
  for (const auto& m : r.metrics) {
    std::printf("# %-40s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (json_number(m.value) == "null") r.problem(m.name + " is not finite");
  }
  for (const auto& p : r.problems) {
    std::fprintf(stderr, "%s: FAILED CHECK: %s\n", workload.c_str(),
                 p.c_str());
  }

  r.meta["workload"] = json_escape(workload);
  r.meta["seed"] = std::to_string(args.seed);
  r.meta["seconds"] = json_number(args.seconds);
  r.meta["trace"] = args.trace ? "true" : "false";
  r.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.meta["cpu_model"] = json_escape(cpu_model());
  r.meta["kernel"] = json_escape(kernel());
  r.meta["compiler"] = json_escape(compiler());
  r.meta["build_type"] = json_escape(H2R_BENCH_BUILD_TYPE);
  r.meta["git_commit"] = json_escape(commit);
  std::string meta = "{\"_meta\": {";
  bool first = true;
  for (const auto& [key, value] : r.meta) {
    meta += (first ? "" : ", ") + json_escape(key) + ": " + value;
    first = false;
  }
  std::printf("%s}}\n", meta.c_str());

  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  first = true;
  for (const auto& m : r.metrics) {
    out += (first ? "" : ", ") + json_escape(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_escape(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
