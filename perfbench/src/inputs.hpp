// Seeded inputs: every matrix pattern and value, input vector, arrival
// time, tenant pick and arrival order of a run comes from --seed through
// these functions, and the library only ever sees their results.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"
#include "spc/support/rng.hpp"

namespace perfbench {

/// Independent stream for one named input of a run.
std::uint64_t sub_seed(std::uint64_t seed, std::string_view tag);

struct Matrix {
  std::string name;
  spc::Triplets t;
};

/// The SPD 7-point stencil on an n^3 grid, every value scaled by a seeded
/// factor (the CG iteration count does not depend on it).
spc::Triplets stencil_3d(int n, spc::Rng& rng);

/// R-MAT power-law graph (a = 0.57, b = c = 0.19) with duplicate edges
/// dropped and values drawn from a pool of `pool` values (0 = all
/// distinct). Edges are bucketed by row instead of globally sorted, so a
/// graph of tens of millions of edges is built in seconds.
spc::Triplets rmat(std::uint32_t scale, std::uint64_t edges,
                   std::uint32_t pool, spc::Rng& rng);

/// spmv-cache: one matrix per corpus class at the corpus's small scale.
std::vector<Matrix> cache_matrices(std::uint64_t seed);

/// serve-churn: the four resident tenants; the first (hot) one is SPD.
std::vector<Matrix> serve_tenants(std::uint64_t seed);

/// serve-churn: the k-th distinct arriving matrix.
Matrix churn_matrix(std::uint64_t seed, std::size_t k);

spc::Vector seeded_vector(std::size_t n, spc::Rng& rng);

/// One open-loop request: when it is due (seconds from phase start),
/// which tenant and input vector it uses, and whether its response is
/// checked against the oracle.
struct Request {
  double due_s = 0.0;
  std::uint32_t tenant = 0;
  std::uint32_t xvar = 0;
  bool check = false;
};
/// Poisson arrivals at `rate` over `duration_s`, tenants picked by weight.
std::vector<Request> poisson_schedule(double rate, double duration_s,
                                      const std::vector<double>& weights,
                                      std::uint32_t xvariants,
                                      double check_fraction, spc::Rng& rng);

/// One tenant arrival of serve-churn: which distinct matrix arrives and
/// whether it is a repeat of an earlier arrival (a tune-cache hit).
struct ChurnStep {
  std::size_t matrix = 0;
  bool repeat = false;
};
std::vector<ChurnStep> churn_plan(std::size_t arrivals, double repeat_fraction,
                                  spc::Rng& rng);

}  // namespace perfbench
