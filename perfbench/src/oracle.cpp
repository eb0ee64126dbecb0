#include "oracle.hpp"

#include <cmath>

namespace perfbench {

Reference reference_spmv(const spc::Triplets& t, const spc::Vector& x) {
  Reference r;
  r.y.assign(t.nrows(), 0.0);
  r.mag.assign(t.nrows(), 0.0);
  for (const spc::Entry& e : t.entries()) {
    r.y[e.row] += e.val * x[e.col];
    r.mag[e.row] += std::fabs(e.val) * std::fabs(x[e.col]);
  }
  return r;
}

std::size_t mismatches(const spc::Vector& y, const Reference& ref,
                       double rel_tol) {
  if (y.size() != ref.y.size()) {
    return ref.y.size() + 1;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double diff = std::fabs(y[i] - ref.y[i]);
    if (!(diff <= rel_tol * ref.mag[i])) {
      ++bad;
    }
  }
  return bad;
}

double true_relative_residual(const spc::Triplets& t, const spc::Vector& b,
                              const spc::Vector& x) {
  const Reference ax = reference_spmv(t, x);
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double r = b[i] - ax.y[i];
    rr += r * r;
    bb += b[i] * b[i];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

}  // namespace perfbench
