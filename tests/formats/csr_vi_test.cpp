#include "spc/formats/csr_vi.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <set>

#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(CsrVi, PaperFig4GoldenLayout) {
  // Fig 4: unique values in first-occurrence order and per-nnz indices.
  const CsrVi m = CsrVi::from_triplets(test::paper_matrix());
  const std::vector<value_t> uniq = {5.4, 1.1, 6.3, 7.7, 8.8,
                                     2.9, 3.7, 9.0, 4.5};
  ASSERT_EQ(m.unique_count(), uniq.size());
  for (std::size_t i = 0; i < uniq.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.vals_unique()[i], uniq[i]) << i;
  }
  // values: 5.4 1.1 6.3 7.7 8.8 1.1 2.9 3.7 2.9 9.0 1.1 4.5 1.1 2.9 3.7 1.1
  const std::vector<std::uint8_t> ind = {0, 1, 2, 3, 4, 1, 5, 6,
                                         5, 7, 1, 8, 1, 5, 6, 1};
  ASSERT_EQ(m.width(), ViWidth::kU8);
  for (std::size_t i = 0; i < ind.size(); ++i) {
    EXPECT_EQ(m.val_ind_raw()[i], ind[i]) << i;
  }
}

TEST(CsrVi, SharesCsrIndexStructure) {
  const CsrVi vi = CsrVi::from_triplets(test::paper_matrix());
  const Csr csr = Csr::from_triplets(test::paper_matrix());
  ASSERT_EQ(vi.row_ptr().size(), csr.row_ptr().size());
  for (std::size_t i = 0; i < csr.row_ptr().size(); ++i) {
    EXPECT_EQ(vi.row_ptr()[i], csr.row_ptr()[i]);
  }
  for (usize_t i = 0; i < csr.nnz(); ++i) {
    EXPECT_EQ(vi.col_ind()[i], csr.col_ind()[i]);
    EXPECT_DOUBLE_EQ(vi.value_at(i), csr.values()[i]);
  }
}

TEST(CsrVi, RoundTripPaperMatrix) {
  const Triplets orig = test::paper_matrix();
  test::expect_triplets_eq(orig,
                           CsrVi::from_triplets(orig).to_triplets());
}

TEST(CsrVi, WidthSelection) {
  EXPECT_EQ(vi_width_for(1), ViWidth::kU8);
  EXPECT_EQ(vi_width_for(256), ViWidth::kU8);
  EXPECT_EQ(vi_width_for(257), ViWidth::kU16);
  EXPECT_EQ(vi_width_for(65536), ViWidth::kU16);
  EXPECT_EQ(vi_width_for(65537), ViWidth::kU32);
}

TEST(CsrVi, U16WidthRoundTrip) {
  // Force more than 256 unique values.
  Triplets t(40, 40);
  for (index_t r = 0; r < 40; ++r) {
    for (index_t c = 0; c < 40; ++c) {
      t.add(r, c, static_cast<value_t>(r * 40 + c) * 0.125);
    }
  }
  t.sort_and_combine();
  const CsrVi m = CsrVi::from_triplets(t);
  EXPECT_EQ(m.width(), ViWidth::kU16);
  EXPECT_EQ(m.unique_count(), 1600u);
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(CsrVi, TtuComputation) {
  Rng rng(2);
  const Triplets t =
      gen_random_uniform(400, 400, 10, rng, ValueModel::pooled(8));
  const CsrVi m = CsrVi::from_triplets(t);
  EXPECT_LE(m.unique_count(), 8u);
  EXPECT_GT(m.ttu(), kViTtuThreshold);
}

TEST(CsrVi, CompressesPooledValues) {
  Rng rng(7);
  const Triplets t =
      gen_random_uniform(2000, 2000, 10, rng, ValueModel::pooled(100));
  const CsrVi vi = CsrVi::from_triplets(t);
  const Csr csr = Csr::from_triplets(t);
  // val_ind is u8 here: value side shrinks from 8B to ~1B per nnz.
  EXPECT_LT(vi.bytes(), csr.bytes());
  EXPECT_EQ(vi.width(), ViWidth::kU8);
}

TEST(CsrVi, RandomValuesGiveNoCompression) {
  Rng rng(8);
  const Triplets t = test::random_triplets(300, 300, 4000, rng);
  const CsrVi vi = CsrVi::from_triplets(t);
  const Csr csr = Csr::from_triplets(t);
  // Every value distinct: indices + unique table exceed the plain array.
  EXPECT_LT(vi.ttu(), 1.5);
  EXPECT_GT(vi.bytes(), csr.bytes());
}

TEST(CsrVi, BitPatternIdentityDistinguishesSignedZero) {
  Triplets t(1, 2);
  t.add(0, 0, 0.0);
  t.add(0, 1, -0.0);
  t.sort_and_combine();
  const CsrVi m = CsrVi::from_triplets(t);
  EXPECT_EQ(m.unique_count(), 2u);  // +0.0 and -0.0 differ bitwise
}

std::uint64_t bits_of(value_t v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

value_t quiet_nan_with_payload(std::uint64_t payload) {
  const std::uint64_t b = 0x7ff8000000000000ULL | payload;
  value_t v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// +0.0, -0.0, +-Inf and two quiet NaNs with different payloads, some
// repeated. Each row holds at most one non-finite value, so with a
// finite, non-zero x no row ever combines two NaNs (whose payload order
// the hardware would pick) or Inf with -Inf.
Triplets special_values_matrix() {
  const value_t inf = std::numeric_limits<value_t>::infinity();
  const value_t nan1 = quiet_nan_with_payload(0x1);
  const value_t nan2 = quiet_nan_with_payload(0xbeef);
  Triplets t(7, 4);
  t.add(0, 0, nan1);
  t.add(0, 1, 1.0);
  t.add(1, 2, nan2);
  t.add(1, 3, 2.0);
  t.add(2, 0, inf);
  t.add(2, 3, 3.0);
  t.add(3, 1, -inf);
  t.add(4, 0, 0.0);
  t.add(4, 1, -0.0);
  t.add(4, 2, 1.5);
  t.add(5, 3, nan1);
  t.add(6, 2, inf);
  t.add(6, 3, -0.0);
  t.sort_and_combine();
  return t;
}

template <typename M>
void expect_one_entry_per_bit_pattern(const Triplets& t, const M& m,
                                      const char* what) {
  std::set<std::uint64_t> patterns;
  for (const Entry& e : t.entries()) {
    patterns.insert(bits_of(e.val));
  }
  std::set<std::uint64_t> table;
  for (const value_t v : m.vals_unique()) {
    table.insert(bits_of(v));
  }
  EXPECT_EQ(m.unique_count(), patterns.size()) << what;
  EXPECT_EQ(table, patterns) << what;
}

TEST(CsrVi, SpecialValuesGetOneTableEntryPerBitPattern) {
  const Triplets t = special_values_matrix();
  expect_one_entry_per_bit_pattern(t, CsrVi::from_triplets(t), "csr-vi");
  expect_one_entry_per_bit_pattern(t, CsrDuVi::from_triplets(t),
                                   "csr-du-vi");
}

TEST(CsrVi, SpecialValuesMatchCsrBitForBitAtScalar) {
  // Non-finite x stays out: the symmetric kernels' implicit 0.0
  // diagonal turns an infinite x[r] into NaN where CSR skips the absent
  // entry, so only finite x has one defined answer across formats.
  const Triplets t = special_values_matrix();
  const Vector x = {0.75, -1.25, 2.5, -0.5};
  test::ScopedEnv isa("SPC_ISA", "scalar");
  Vector y_csr(t.nrows(), 0.0);
  SpmvInstance(t, Format::kCsr).run(x, y_csr);
  for (const Format f : {Format::kCsrVi, Format::kCsrDuVi}) {
    Vector y(t.nrows(), 0.0);
    SpmvInstance(t, f).run(x, y);
    for (index_t r = 0; r < t.nrows(); ++r) {
      EXPECT_EQ(bits_of(y[r]), bits_of(y_csr[r]))
          << format_name(f) << " row " << r << ": " << y[r] << " vs "
          << y_csr[r];
    }
  }
}

TEST(CsrVi, EmptyMatrix) {
  Triplets t(3, 3);
  const CsrVi m = CsrVi::from_triplets(t);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.unique_count(), 0u);
  EXPECT_EQ(m.ttu(), 0.0);
}

class CsrViRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CsrViRoundTrip, PooledRandomMatrices) {
  Rng rng(100 + GetParam());
  const std::uint32_t pool = GetParam();
  const Triplets t = test::random_triplets(250, 250, 3000, rng, pool);
  test::expect_triplets_eq(t, CsrVi::from_triplets(t).to_triplets());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, CsrViRoundTrip,
                         ::testing::Values(0u, 1u, 2u, 5u, 50u, 255u, 256u,
                                           400u, 1000u));

}  // namespace
}  // namespace spc
