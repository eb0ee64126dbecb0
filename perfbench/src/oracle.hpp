// The correctness oracle: a serial CSR-order product computed straight
// from the triplets, independent of every storage format.
#pragma once

#include <cstddef>

#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"

namespace perfbench {

/// y_ref = A x, plus the per-row magnitude (|A||x|)_i that bounds the
/// rounding error of any reassociated evaluation of row i.
struct Reference {
  spc::Vector y;
  spc::Vector mag;
};
Reference reference_spmv(const spc::Triplets& t, const spc::Vector& x);

/// Number of rows where |y_i - ref.y_i| > rel_tol * ref.mag_i (NaN counts
/// as a mismatch); a size mismatch counts every row.
std::size_t mismatches(const spc::Vector& y, const Reference& ref,
                       double rel_tol);

/// ||b - A x||_2 / ||b||_2 from the triplets (the CG check).
double true_relative_residual(const spc::Triplets& t, const spc::Vector& b,
                              const spc::Vector& x);

}  // namespace perfbench
