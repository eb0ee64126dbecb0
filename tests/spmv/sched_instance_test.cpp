// SpmvInstance-level behavior of the work-stealing scheduler: which
// instances steal (the format decides, nothing is requested), chunk
// accounting, granularity of the derived chunk target, and result
// identity with the 1-thread instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

// The formats whose per-thread work is a row range of one kernel
// writing only its own rows of y.
const std::vector<Format>& stealable_formats() {
  static const std::vector<Format> kFormats = {
      Format::kCsr,    Format::kCsr16,    Format::kCsrVi,
      Format::kCsrDu,  Format::kCsrDuRle, Format::kCsrDuVi,
      Format::kBcsr,   Format::kEll,
  };
  return kFormats;
}

bool is_stealable(Format f) {
  const auto& s = stealable_formats();
  return std::find(s.begin(), s.end(), f) != s.end();
}

Triplets skewed_matrix() {
  // Power-law-ish row lengths so chunking is non-trivial: a few dense
  // rows among many sparse ones.
  Rng rng(424242);
  return gen_rmat(10, 20000, rng, ValueModel::random());
}

// Large enough that the derived chunk target gives several chunks per
// worker at 4 threads (nnz >= 4 * 4 * 1024).
Triplets granular_matrix() {
  Rng rng(21);
  return test::random_triplets(6000, 6000, 120000, rng);
}

void expect_no_schedule_decision(const SpmvInstance& inst,
                                 const std::string& what) {
  for (const InstanceDecision& d : inst.decisions()) {
    EXPECT_NE(d.aspect, "schedule") << what << ": " << d.reason;
  }
}

TEST(SchedInstance, EveryFormatPicksItsSchedule) {
  // Symmetric, so the symmetric formats encode too.
  const Triplets t = gen_laplacian_2d(40, 40);
  ASSERT_TRUE(SymCsr::applicable(t));
  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : all_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SpmvInstance inst(t, f, threads, opts);
      const std::string what =
          format_name(f) + " x" + std::to_string(threads);
      const bool steals = threads > 1 && is_stealable(f);
      EXPECT_EQ(inst.schedule(),
                steals ? Schedule::kSteal : Schedule::kStatic)
          << what;
      EXPECT_EQ(inst.sched_chunks() > 0, steals) << what;
      expect_no_schedule_decision(inst, what);
    }
  }
}

TEST(SchedInstance, SharedPoolInstancesPickTheSameWay) {
  const Triplets t = skewed_matrix();
  auto pool = std::make_shared<ThreadPool>(2, std::vector<int>{});
  for (const Format f : {Format::kCsr, Format::kCsrDu, Format::kCsc,
                         Format::kJds}) {
    SpmvInstance inst(t, f, pool);
    EXPECT_EQ(inst.schedule(),
              is_stealable(f) ? Schedule::kSteal : Schedule::kStatic)
        << format_name(f);
    expect_no_schedule_decision(inst, format_name(f));
  }
}

TEST(SchedInstance, OpenMpBackendRunsStatic) {
  // setup_schedule is pool-only; without OpenMP support the backend
  // resolves to the pool and the format decides again.
  const Triplets t = skewed_matrix();
  InstanceOptions opts;
  opts.backend = Backend::kOpenMP;
  opts.pin_threads = false;
  SpmvInstance inst(t, Format::kCsr, 2, opts);
  EXPECT_EQ(inst.schedule(),
            openmp_available() ? Schedule::kStatic : Schedule::kSteal);
  expect_no_schedule_decision(inst, "openmp");
}

TEST(SchedInstance, EmptyMatrixChunkPlanDegeneratesToStatic) {
  const Triplets t(0, 8);
  InstanceOptions opts;
  opts.pin_threads = false;
  SpmvInstance inst(t, Format::kCsr, 2, opts);
  EXPECT_EQ(inst.schedule(), Schedule::kStatic);
  EXPECT_EQ(inst.sched_chunks(), 0u);
  expect_no_schedule_decision(inst, "empty");
  const Vector x(8, 1.0);
  Vector y;
  inst.run(x, y);
}

TEST(SchedInstance, DerivedTargetGivesSeveralChunksPerWorker) {
  // The L2-derived target alone would leave a matrix this size at one
  // chunk per worker on a large L2; the adaptive shrink keeps >= ~4.
  const Triplets t = granular_matrix();
  InstanceOptions opts;
  opts.pin_threads = false;
  for (const std::size_t threads : {2u, 4u}) {
    for (const Format f : stealable_formats()) {
      if (f == Format::kCsr16 && !csr16_applicable(t)) {
        continue;
      }
      SpmvInstance inst(t, f, threads, opts);
      ASSERT_EQ(inst.schedule(), Schedule::kSteal) << format_name(f);
      EXPECT_GE(inst.sched_chunks(), 4 * threads)
          << format_name(f) << " x" << threads;
    }
  }
}

TEST(SchedInstance, SmallMatrixKeepsOneChunkPerWorkerAndSteals) {
  // Below 4 * threads * 1024 nnz the planner's floor wins: one chunk
  // per worker, which is still a plan (whole ranges may move).
  Rng rng(7);
  const Triplets t = test::random_triplets(300, 300, 4000, rng);
  InstanceOptions opts;
  opts.pin_threads = false;
  SpmvInstance inst(t, Format::kCsr, 4, opts);
  EXPECT_EQ(inst.schedule(), Schedule::kSteal);
  EXPECT_EQ(inst.sched_chunks(), 4u);
}

TEST(SchedInstance, ExecutedChunkCountsSumToPlanTimesRuns) {
  const Triplets t = granular_matrix();
  Rng xr(9);
  const Vector x = random_vector(t.ncols(), xr);
  Vector y(t.nrows(), 0.0);
  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : stealable_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    SpmvInstance inst(t, f, 4, opts);
    const std::size_t chunks = inst.sched_chunks();
    ASSERT_GT(chunks, 0u) << format_name(f);
    constexpr std::uint64_t kRuns = 5;
    for (std::uint64_t i = 0; i < kRuns; ++i) {
      inst.run(x, y);
    }
    std::uint64_t executed = 0;
    for (std::size_t th = 0; th < inst.nthreads(); ++th) {
      executed += inst.sched_executed(th);
    }
    EXPECT_EQ(executed, kRuns * chunks) << format_name(f);
    // Steals are opportunistic — only the invariant total is exact;
    // stolen chunks are a subset of executed ones.
    EXPECT_LE(inst.sched_steals_total(), executed) << format_name(f);
    inst.sched_reset();
    for (std::size_t th = 0; th < inst.nthreads(); ++th) {
      EXPECT_EQ(inst.sched_executed(th), 0u);
      EXPECT_EQ(inst.sched_stolen(th), 0u);
    }
  }
}

TEST(SchedInstance, EveryFormatMatchesTheSerialInstanceBitForBitAtScalar) {
  const Triplets t = granular_matrix();
  Rng xr(12);
  const Vector x = random_vector(t.ncols(), xr);
  test::ScopedEnv isa("SPC_ISA", "scalar");
  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : stealable_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    Vector y_serial(t.nrows(), 0.0);
    SpmvInstance serial(t, f, 1, opts);
    serial.run(x, y_serial);
    SpmvInstance inst(t, f, 4, opts);
    ASSERT_EQ(inst.schedule(), Schedule::kSteal) << format_name(f);
    for (int run = 0; run < 5; ++run) {
      Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      inst.run(x, y);
      ASSERT_EQ(max_abs_diff(y_serial, y), 0.0)
          << format_name(f) << " run " << run;
    }
  }
}

TEST(SchedInstance, StealComposesWithNumaPolicies) {
  // Chunk closures must follow the repacked slices: bit-identical
  // results whatever SPC_NUMA says (single-node CI resolves local to a
  // 1-node repack, which still moves the arrays).
  const Triplets t = granular_matrix();
  Rng xr(13);
  const Vector x = random_vector(t.ncols(), xr);
  test::ScopedEnv isa("SPC_ISA", "scalar");
  InstanceOptions opts;
  opts.pin_threads = true;  // placement needs pinned workers
  for (const Format f : stealable_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    Vector y_off(t.nrows(), 0.0);
    {
      test::ScopedEnv numa("SPC_NUMA", "off");
      SpmvInstance inst(t, f, 4, opts);
      inst.run(x, y_off);
    }
    for (const char* policy : {"local", "replicate", "interleaved"}) {
      test::ScopedEnv numa("SPC_NUMA", policy);
      SpmvInstance inst(t, f, 4, opts);
      EXPECT_EQ(inst.schedule(), Schedule::kSteal)
          << format_name(f) << " " << policy;
      EXPECT_NE(inst.numa_policy(), NumaPolicy::kOff)
          << format_name(f) << " " << policy;
      Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      inst.run(x, y);
      EXPECT_EQ(max_abs_diff(y_off, y), 0.0)
          << format_name(f) << " " << policy;
    }
  }
}

}  // namespace
}  // namespace spc
