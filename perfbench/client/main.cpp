// perfbench_client -- the compiled half of the ndetd benchmark
// (perfbench/run.py drives it).
//
//   perfbench_client drive --schedule=F --ndetd=PATH --connections=C
//       --cache-bytes=B --setups=K --rounds=R --out=DIR
//     launches ndetd, replays the set-up K times on fresh daemons, drives
//     the timed schedule over TCP in R consecutive blocks and writes
//     drive.json, served.txt and expected.txt to DIR.
//
//   perfbench_client trace --schedule=F --workload=W --connections=C
//       --cache-bytes=B --out=DIR
//     replays the same schedule in-process with a span around every call
//     into a layer and writes trace.json to DIR.

#include <iostream>

#include "util/cli.hpp"

namespace perfbench {
int run_drive(const ndet::CliArgs& args);
int run_trace(const ndet::CliArgs& args);
}  // namespace perfbench

int main(int argc, char** argv) {
  return ndet::run_cli([&]() -> int {
    const ndet::CliArgs args(
        argc, argv,
        {"schedule", "ndetd", "connections", "cache-bytes", "setups", "out",
         "workload", "rounds"});
    const std::string mode =
        args.positional().empty() ? "" : args.positional().front();
    if (mode == "drive") return perfbench::run_drive(args);
    if (mode == "trace") return perfbench::run_trace(args);
    std::cerr << "usage: perfbench_client drive|trace --schedule=F ...\n";
    return 2;
  });
}
