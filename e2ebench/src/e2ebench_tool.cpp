// e2ebench_tool: the compiled half of the end-to-end benchmark (run.py is
// the other half).
//
//   e2ebench_tool gen <workload> <seed> <dir>
//       write the workload's seeded inputs and control file(s) into <dir>
//   e2ebench_tool setup <ctl>
//       time the CLI's set-up calls; JSON on stdout
//   e2ebench_tool check <workload> <ctl>
//       evaluate every task at the simulation truth and on the input tree,
//       and re-evaluate the fits in the CLI's checkpoint (if the control file
//       names one) under the codeml preset; JSON on stdout
//   e2ebench_tool trace <ctl>
//       run the workload in-process with every layer's public entry points
//       timed; per-layer metrics and lnLs as JSON on stdout
//
// Run from the workload directory (the control file's paths are relative).

#include <cstdlib>
#include <iostream>
#include <string>

#include "traced_run.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "gen" && argc == 5) {
      e2ebench::generateWorkload(e2ebench::workloadSpec(argv[2]),
                                 std::strtoull(argv[3], nullptr, 10), argv[4]);
    } else if (cmd == "setup" && argc == 3) {
      e2ebench::timeSetup(argv[2], std::cout);
    } else if (cmd == "check" && argc == 4) {
      e2ebench::checkPass(e2ebench::workloadSpec(argv[2]), argv[3], std::cout);
    } else if (cmd == "trace" && argc == 3) {
      e2ebench::tracedRun(argv[2], std::cout);
    } else {
      std::cerr << "usage: e2ebench_tool gen <workload> <seed> <dir> | "
                   "setup <ctl> | check <workload> <ctl> | "
                   "trace <ctl>\n";
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench_tool: " << e.what() << '\n';
    return 1;
  }
}
