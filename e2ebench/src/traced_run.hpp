#pragma once
// In-process runs of a generated workload.  They make the same public
// calls slimcodeml_main makes for a control file and time them from the
// benchmark's side; nothing inside the library is instrumented.

#include <iosfwd>
#include <string>

#include "workloads.hpp"

namespace e2ebench {

/// Times the CLI's set-up calls for `ctl` (control-file parse, tree and
/// alignment loads, context / batch / scan construction): writes one JSON
/// object whose "setup_s" lists a few samples, each the mean of many passes,
/// in seconds.  The untraced run calls it between CLI runs.
void timeSetup(const std::string& ctl, std::ostream& out);

/// The untraced run's check pass, run in the workload directory after the
/// CLI runs:
///  * evaluates every task under the simulation's parameters, on the
///    simulation's branch lengths (truth.nwk) and on the input tree's (the
///    references of the lnl_gap_closed metric);
///  * when the control file names a checkpoint, re-evaluates every completed
///    fit the CLI recorded there (exact MLE bits, branch lengths included)
///    under the codeml engine preset.
/// Writes one JSON object to `out`.
void checkPass(const WorkloadSpec& spec, const std::string& ctl,
               std::ostream& out);

/// The traced run: the calls slimcodeml_main makes for `ctl`, each timed,
/// then per-call cost replays at the MLE, the program's counters, and the
/// codeml-preset oracle check of every fit.  Reports go to "trace_"-prefixed
/// files so the CLI's own outputs stay untouched.  Writes one JSON object
/// with the per-layer metrics and every task's lnLs.
void tracedRun(const std::string& ctl, std::ostream& out);

}  // namespace e2ebench
