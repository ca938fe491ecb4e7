// simbench: runs one workload of the simsel benchmark and prints its metrics.
//
//   simbench --workload grid-mem|grid-disk|serve-rw --seed N --seconds S
//            --trace 0|1 [--out-dir DIR]
//
// Human-readable lines go first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The run artifact (sizes,
// per-cell table, layer table) is written to DIR/<workload>[.traced].json.
// Exits 1 on any exactness violation and 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload "
               "grid-mem|grid-disk|serve-rw --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseNumber(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  simbench::RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double num = 0.0;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &num) || num < 0) return Usage("bad --seed");
      cfg.seed = static_cast<uint64_t>(num);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &num) || num <= 0) return Usage("bad --seconds");
      cfg.seconds = num;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      cfg.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");

  simbench::Report report(cfg);
  if (cfg.workload == "grid-mem") {
    simbench::RunGridMem(&report);
  } else if (cfg.workload == "grid-disk") {
    simbench::RunGridDisk(&report);
  } else if (cfg.workload == "serve-rw") {
    simbench::RunServeRw(&report);
  } else {
    return Usage("unknown --workload");
  }

  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof(buf), f) != nullptr) {
      if (std::strncmp(buf, "VmHWM:", 6) == 0) {
        const long kb = std::strtol(buf + 6, nullptr, 10);
        report.Section("peak_rss_kb", std::to_string(kb));
        report.Line("peak resident set " + std::to_string(kb / 1024) + " MiB");
      }
    }
    std::fclose(f);
  }
  for (const std::string& line : report.lines()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("attempted %llu, failed %llu (failed_fraction %s)\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              simbench::Num(report.attempted() == 0
                                ? 0.0
                                : static_cast<double>(report.failed()) /
                                      static_cast<double>(report.attempted()))
                  .c_str());
  for (const std::string& note : report.notes()) {
    std::printf("VIOLATION: %s\n", note.c_str());
  }
  if (!report.WriteArtifact()) {
    std::printf("warning: could not write the run artifact under %s\n",
                cfg.out_dir.c_str());
  }
  std::printf("%s\n", report.ResultLine().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
