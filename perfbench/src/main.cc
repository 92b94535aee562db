// perfbench entry point:
//   perfbench --workload fig1|dispatch|interlang|serve --seed N --seconds S
//             --trace 0|1 [--rev REV] [--record PATH]
// The last line of standard output is the JSON result
// {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fig1|dispatch|interlang|serve "
               "--seed N --seconds S --trace 0|1 [--rev REV] [--record PATH]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--rev") {
      opt.rev = value;
    } else if (key == "--record") {
      opt.record = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  try {
    perfbench::Outcome out;
    if (opt.workload == "serve") {
      out = perfbench::run_serve_workload(opt);
    } else if (opt.workload == "fig1" || opt.workload == "dispatch" ||
               opt.workload == "interlang") {
      out = perfbench::run_batch_workload(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    perfbench::emit_result(opt, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
