// The three workloads. Each runs for Options::seconds, checks every answer,
// and adds its metrics to the report: the end-to-end metrics without
// --trace, the per-layer metrics with it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

Status RunQueryWorkload(const Options& opt, Report* report);
Status RunServeWorkload(const Options& opt, Report* report);
Status RunIngestWorkload(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
