// Kernel-vs-reference fuzzing across the dispatch matrix: every
// dispatch-routed format × every ISA tier available on this host ×
// serial and multithreaded execution, against the scalar CSR oracle,
// over a swarm of deterministically-seeded random matrices.
//
// The scalar tier must match the oracle bit-for-bit for the row-order
// formats (same accumulation order); vector tiers reassociate per-row
// sums into lane partials, so they are held to a relative-error bound
// instead (a few ulps — the reassociation of ~row_length addends).
#include <gtest/gtest.h>

#include <limits>

#include "spc/gen/generators.hpp"
#include "spc/spmv/dispatch.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

// Reassociating a length-k sum perturbs it by at most ~k ulps; the
// matrices below stay under ~4k nnz per row, so 1e-12 is generous while
// still catching any indexing bug (which produces O(1) errors).
constexpr double kVectorTol = 1e-12;

// ~20 deterministic draws spanning the structures the kernels
// specialize on: dense-ish rows (contiguous AVX loads), banded
// (RLE-friendly strides), ragged (unit-length tails), rmat (irregular
// gathers), pooled values (small VI tables), plus degenerate shapes.
Triplets fuzz_matrix(int seed) {
  Rng rng(7000 + seed);
  switch (seed % 7) {
    case 0:
      return test::random_triplets(
          1 + static_cast<index_t>(rng.next_below(300)),
          1 + static_cast<index_t>(rng.next_below(300)),
          rng.next_below(5000), rng,
          static_cast<std::uint32_t>(rng.next_below(200)));
    case 1:
      return gen_ragged(1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(30)),
                        0.4 * rng.next_double(), rng,
                        ValueModel::pooled(12));
    case 2:
      return gen_banded(32 + static_cast<index_t>(rng.next_below(300)),
                        1 + static_cast<index_t>(rng.next_below(50)),
                        1 + static_cast<index_t>(rng.next_below(10)), rng,
                        ValueModel::random());
    case 3:
      return gen_rmat(6 + static_cast<std::uint32_t>(rng.next_below(4)),
                      400 + rng.next_below(3000), rng,
                      ValueModel::pooled(6));
    case 4:
      return gen_fem_blocks(
          4 + static_cast<index_t>(rng.next_below(30)),
          1 + static_cast<index_t>(rng.next_below(4)),
          1 + static_cast<index_t>(rng.next_below(5)), rng,
          ValueModel::random());
    case 5: {
      // Long dense rows: exercises the vector kernels' main loops for
      // many iterations and the stride-1 RLE decode.
      const index_t n = 4 + static_cast<index_t>(rng.next_below(8));
      Triplets t(n, 512);
      for (index_t r = 0; r < n; ++r) {
        for (index_t c = 0; c < 512; ++c) {
          t.add(r, c, rng.next_double(-2.0, 2.0));
        }
      }
      t.sort_and_combine();
      return t;
    }
    default: {
      // Tiny/degenerate shapes: single row, single column, 1x1 — all
      // tail-path, no main-loop iterations.
      switch (seed % 3) {
        case 0:
          return test::random_triplets(1, 97, 60, rng);
        case 1:
          return test::random_triplets(97, 1, 60, rng);
        default:
          return test::random_triplets(1, 1, 1, rng);
      }
    }
  }
}

const std::vector<Format>& dispatch_formats() {
  static const std::vector<Format> kFormats = {
      Format::kCsr,      Format::kCsr16,   Format::kCsrVi,
      Format::kCsrDu,    Format::kCsrDuRle, Format::kCsrDuVi,
      Format::kDcsr,     Format::kCoo,
  };
  return kFormats;
}

class DispatchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DispatchFuzz, EveryFormatEveryTierMatchesScalarCsrOracle) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9000 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);

  InstanceOptions opts;
  opts.pin_threads = false;
  for (const IsaTier tier : available_isa_tiers()) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    for (const Format f : dispatch_formats()) {
      if (f == Format::kCsr16 && !csr16_applicable(t)) {
        continue;
      }
      for (const std::size_t threads : {1u, 4u}) {
        SpmvInstance inst(t, f, threads, opts);
        ASSERT_LE(static_cast<int>(inst.isa_tier()),
                  static_cast<int>(tier));
        Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
        inst.run(x, y);
        const std::string what = format_name(f) + " @" +
                                 isa_tier_name(tier) + " x" +
                                 std::to_string(threads) + " seed " +
                                 std::to_string(GetParam());
        // Row-order formats at the scalar tier share the oracle's exact
        // accumulation order; COO scatters, so tolerance there.
        if (tier == IsaTier::kScalar && f != Format::kCoo) {
          EXPECT_EQ(max_abs_diff(y_ref, y), 0.0) << what;
        } else {
          EXPECT_LT(rel_error(y_ref, y), kVectorTol) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, DispatchFuzz, ::testing::Range(0, 21));

// Every repackable format under every SPC_NUMA policy must produce the
// byte-for-byte result of the policy-off run: the first-touch repack
// copies slices verbatim and the kernels run in the same order, so at
// the scalar tier even the floating-point accumulation is identical.
const std::vector<Format>& numa_formats() {
  static const std::vector<Format> kFormats = {
      Format::kCsr,    Format::kCsr16,    Format::kCsrVi,
      Format::kCsrDu,  Format::kCsrDuRle, Format::kCsrDuVi,
      Format::kBcsr,   Format::kEll,
  };
  return kFormats;
}

class NumaFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NumaFuzz, RepackedSlicesAreBitIdenticalAcrossPolicies) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9100 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);

  test::ScopedEnv isa("SPC_ISA", "scalar");
  InstanceOptions opts;
  opts.pin_threads = true;  // placement needs pinned workers
  constexpr std::size_t kThreads = 4;
  for (const Format f : numa_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    Vector y_off(t.nrows(), 0.0);
    {
      test::ScopedEnv numa("SPC_NUMA", "off");
      SpmvInstance inst(t, f, kThreads, opts);
      EXPECT_EQ(inst.numa_policy(), NumaPolicy::kOff);
      inst.run(x, y_off);
    }
    for (const char* policy : {"local", "replicate", "interleaved"}) {
      test::ScopedEnv numa("SPC_NUMA", policy);
      SpmvInstance inst(t, f, kThreads, opts);
      EXPECT_NE(inst.numa_policy(), NumaPolicy::kOff)
          << format_name(f) << " " << policy;
      Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      inst.run(x, y);
      EXPECT_EQ(max_abs_diff(y_off, y), 0.0)
          << format_name(f) << " " << policy << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, NumaFuzz, ::testing::Range(0, 21));

// Scheduler determinism: chunk boundaries are row-aligned, so whatever
// worker executes a chunk, every row's dot product keeps its serial
// accumulation order — the multithreaded instance (which steals for
// these formats) must match the 1-thread instance bit for bit at the
// scalar tier, under every NUMA policy and with or without column
// tiling, and stays within reassociation noise of the oracle at the
// vector tiers (where the per-row sum itself is lane-split).
class SchedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SchedFuzz, MultithreadedMatchesSerialAcrossFormatsNumaTilingAndTiers) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9200 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);

  InstanceOptions opts;
  opts.pin_threads = true;  // NUMA placement needs pinned workers
  for (const IsaTier tier : available_isa_tiers()) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    for (const char* tile : {"off", "256"}) {
      test::ScopedEnv tiling("SPC_TILE", tile);
      for (const Format f : numa_formats()) {
        if (f == Format::kCsr16 && !csr16_applicable(t)) {
          continue;
        }
        Vector y_serial(t.nrows(), 0.0);
        {
          SpmvInstance inst(t, f, 1, opts);
          inst.run(x, y_serial);
        }
        // The serial instance must itself be correct before it can
        // anchor the others. (Tolerance, not bit-identity: BCSR pads
        // blocks with explicit zeros and so accumulates in a different
        // order than the oracle.)
        ASSERT_LT(rel_error(y_ref, y_serial), kVectorTol) << format_name(f);
        for (const char* numa : {"off", "local", "replicate"}) {
          test::ScopedEnv placement("SPC_NUMA", numa);
          SpmvInstance inst(t, f, 4, opts);
          EXPECT_EQ(inst.schedule(), Schedule::kSteal) << format_name(f);
          Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
          inst.run(x, y);
          const std::string what =
              format_name(f) + " numa=" + numa + " tile=" + tile + " @" +
              isa_tier_name(tier) + " seed " + std::to_string(GetParam());
          if (tier == IsaTier::kScalar) {
            // Same kernel, same rows, same per-row accumulation order —
            // the executor assignment must be invisible in the bits.
            EXPECT_EQ(max_abs_diff(y_serial, y), 0.0) << what;
          } else {
            EXPECT_LT(rel_error(y_ref, y), kVectorTol) << what;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, SchedFuzz, ::testing::Range(0, 21));

}  // namespace
}  // namespace spc
