// The benchmark's workloads. Each runs its set-up (repeated for the
// set-up median and the determinism gate), its closed measured loop and
// its correctness checks, and fills a Report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Fresh raw datasets through validate -> extract -> validate graph ->
/// one-request AdvisorServer::Serve.
void RunRecommendCold(const Options& opts, Report* report);

/// Multi-table queries planned through fss::EstimatorService and
/// executed with executor feedback and periodic knowledge commits.
void RunSubplanServe(const Options& opts, Report* report);

/// The write path: label -> fit -> snapshot, then adaptation of a
/// shifted stream through AdaptationPipeline.
void RunBuildAdapt(const Options& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
