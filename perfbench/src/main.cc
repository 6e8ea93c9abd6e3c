/**
 * @file
 * Entry point of the end-to-end benchmark:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--git-sha <sha>] [--src-hash <hash>] [--out-dir <dir>]
 *
 * Prints a provenance line, every metric with its unit, every output
 * check, and as its last line one JSON object with the keys correct,
 * attempted, failed and metrics. Exits 1 when a check fails and 2 on
 * a malformed command line.
 */

#include <cstdio>

#include "common.h"
#include "workloads.h"

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args))
        return 2;
    Report report;
    if (args.workload == "serve2_hyq_gated")
        runServe2HyqGated(args, report);
    else if (args.workload == "batch_dfd_iiwa")
        runBatchDfdIiwa(args, report);
    else {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }
    return report.finish();
}
