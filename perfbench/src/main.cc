// hippo_perfbench: one workload per process.
//
//   hippo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   hippo_perfbench --reference
//
// --trace 0 runs the timed rounds and prints the end-to-end metrics;
// --trace 1 runs the traced pass and prints the per-layer metrics. Either
// way the oracle is first checked against all-repairs ground truth, and the
// last line of standard output is the JSON result. Diagnostics go to
// standard error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hippo_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       hippo_perfbench --reference\n"
               "workloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--reference") return perfbench::RunReference();
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value != "0";
    } else {
      return Usage();
    }
  }
  perfbench::WorkloadPlan plan;
  if (!perfbench::MakePlan(cfg.workload, cfg.seed, &plan) ||
      !(cfg.seconds > 0)) {
    return Usage();
  }

  perfbench::Outcome out;
  auto t0 = perfbench::Clock::now();
  perfbench::SelfTest(cfg.workload, cfg.seed, &out);
  std::fprintf(stderr, "oracle self-test: %.2f s\n",
               perfbench::SecondsSince(t0));
  if (cfg.trace) {
    perfbench::RunTraced(plan, &out);
  } else {
    perfbench::RunTimed(plan, cfg, &out);
  }
  std::printf("%s\n", out.ToJson().c_str());
  return 0;
}
