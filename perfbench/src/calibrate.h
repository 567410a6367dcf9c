#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

/// Wall seconds of a fixed kernel that shares no code with the program:
/// chains of dependent loads through a 16 MiB and a 64 MiB table, then
/// a chain of dependent multiplies. Its work never changes, so its time
/// moves only with how fast the host runs at that moment (CPU share and
/// clock, cache and memory contention from other tenants). run.py times
/// it around every repetition and divides the run's times by it
/// (README.md, "Host-normalized times").
double CalibrationSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
