// Fixed workload parameters of the benchmark. Everything a run depends
// on besides --seed, --seconds and --trace is here; perfbench/README.md
// documents them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench::params {

// ---- correctness ------------------------------------------------------
// Per-row bound on |y - y_ref| relative to (|A||x|)_row. Reassociated
// sums (symmetric formats, tiled and vector kernels) stay far below it.
inline constexpr double kRelTol = 1e-12;
// CG stops at ||r|| <= kCgTol * ||b||; the independent residual check
// accepts up to kCgCheckFactor * kCgTol (the recurrence residual drifts
// slightly from the true one).
inline constexpr double kCgTol = 1e-6;
inline constexpr double kCgCheckFactor = 2.0;
inline constexpr std::size_t kCgMaxIter = 4000;

// ---- threads ----------------------------------------------------------
// The multithreaded SpMV cells and the stream roof use this share of
// nproc (at least 2 threads). A call waits for the slowest of its CPUs,
// and on a VM whose host lends its CPUs to other tenants too, the
// geomean over 4-thread cells moved 2.4x between back-to-back runs (over
// 2-thread cells, 1.15x).
inline constexpr double kSpmvThreadShare = 0.5;

// Streaming-read roof array, as a multiple of the last-level cache.
inline constexpr double kStreamOverLlc = 4.0;

// ---- spmv-cache -------------------------------------------------------
// Guards that make DIA and ELL refuse pathological matrices (the
// library's InvalidArgument), which the benchmark treats as "format not
// applicable" rather than allocating gigabytes.
inline constexpr std::size_t kDiaMaxDiags = 64;
inline constexpr double kEllMaxWidthFactor = 4.0;
// Each cell runs kCacheWarm untimed then kCacheReps timed calls per
// round, so the timed calls see the cell's own data in cache.
inline constexpr int kCacheWarm = 1;
inline constexpr int kCacheReps = 3;

// ---- serve-churn ------------------------------------------------------
inline constexpr double kLatencyLimitUs = 5000.0;  // p99 limit
// Threads: sender, completion poller, arrival thread, kDispatchers
// dispatchers and a kPoolThreads engine pool. Every engine thread is
// another wake-up on a request's path: with 2 workers and 2 dispatchers,
// p50 latency rose 1.4x when two busy processes shared the 4 CPUs; with
// one of each, 1.06x.
inline constexpr std::size_t kPoolThreads = 1;
inline constexpr std::size_t kDispatchers = 1;
inline constexpr std::size_t kQueueCapacity = 1024;
inline constexpr std::size_t kBatchMax = 8;
inline constexpr std::size_t kWarmRuns = 2;
// setup_s is the median of kSetupSamples samples, each the mean of
// kSetupBatch back-to-back engine setups; half run before serving and
// half after.
inline constexpr int kSetupSamples = 10;
inline constexpr int kSetupBatch = 10;
// Tenant popularity: the hot tenant takes over half of all requests.
inline constexpr std::array<double, 4> kTenantWeights = {0.55, 0.20, 0.15,
                                                         0.10};
inline constexpr std::size_t kXVariants = 8;     // input vectors per tenant
inline constexpr double kCheckFraction = 0.03;   // responses checked
// Reads run at kRefRate for kRefShare of --seconds while the arrivals
// run. At this rate the one-worker engine is about 10 % busy, so a host
// that runs it at half speed adds little queueing (at 1000 req/s a busy
// host pushed it into queueing, and p50 moved 1.4x).
inline constexpr double kRefRate = 500.0;
inline constexpr double kRefShare = 0.95;
inline constexpr std::size_t kChurnArrivals = 120;
// Under half, so the median registration is always a probing one (the
// median of an even mix of hits and probes flips between the two modes).
inline constexpr double kChurnRepeatFraction = 0.3;
inline constexpr std::size_t kChurnResident = 3;
// Goodput ladder (traced runs, after the arrivals; requests/s, fixed,
// ascending). Each rung runs kRungWindows tail windows, and the climb
// stops after kLadderStopAfterFails failing rungs in a row.
inline constexpr std::array<double, 14> kLadder = {
    500,  1000, 2000, 3000, 4000, 5000, 5500,
    6000, 6500, 7000, 7500, 8000, 9000, 10000};
inline constexpr std::size_t kRungWindows = 3;
inline constexpr int kLadderStopAfterFails = 2;
// Backlog is "growing" when the mean sampled queue depth of a phase's
// second half exceeds kBacklogGrowth x the first half + kBacklogSlack.
inline constexpr double kBacklogGrowth = 2.0;
inline constexpr double kBacklogSlack = 8.0;

}  // namespace perfbench::params
