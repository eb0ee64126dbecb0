#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "spc/gen/generators.hpp"

namespace perfbench {

using spc::index_t;
using spc::Rng;
using spc::Triplets;
using spc::ValueModel;

std::uint64_t sub_seed(std::uint64_t seed, std::string_view tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a of the tag
  for (const char c : tag) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return spc::SplitMix64(seed ^ h).next();
}

namespace {

Triplets scaled(const Triplets& t, double s) {
  Triplets out(t.nrows(), t.ncols());
  out.reserve(t.nnz());
  for (const spc::Entry& e : t.entries()) {
    out.add(e.row, e.col, e.val * s);
  }
  return out;
}

std::vector<double> value_pool(std::uint32_t pool, Rng& rng) {
  std::vector<double> v(pool);
  for (double& x : v) {
    x = rng.next_double(-1.0, 1.0);
  }
  return v;
}

}  // namespace

Triplets stencil_3d(int n, Rng& rng) {
  return scaled(spc::gen_laplacian_3d(n, n, n), rng.next_double(0.5, 2.0));
}

Triplets rmat(std::uint32_t scale, std::uint64_t edges, std::uint32_t pool,
              Rng& rng) {
  // Quadrant thresholds in 1/65536 units; each level consumes 16 random
  // bits, so one 64-bit draw decides four levels.
  constexpr std::uint32_t ta = 37355;        // a = 0.57
  constexpr std::uint32_t tb = ta + 12452;   // b = 0.19
  constexpr std::uint32_t tc = tb + 12452;   // c = 0.19 (d = 0.05)
  const index_t n = index_t{1} << scale;
  std::vector<index_t> erow(edges);
  std::vector<index_t> ecol(edges);
  std::vector<std::uint64_t> row_count(static_cast<std::size_t>(n) + 1, 0);
  for (std::uint64_t e = 0; e < edges; ++e) {
    index_t r = 0;
    index_t col = 0;
    std::uint64_t bits = 0;
    for (std::uint32_t level = 0; level < scale; ++level) {
      if (level % 4 == 0) {
        bits = rng.next_u64();
      }
      const auto p = static_cast<std::uint32_t>(bits & 0xffff);
      bits >>= 16;
      r <<= 1;
      col <<= 1;
      if (p < ta) {
      } else if (p < tb) {
        col |= 1;
      } else if (p < tc) {
        r |= 1;
      } else {
        r |= 1;
        col |= 1;
      }
    }
    erow[e] = r;
    ecol[e] = col;
    ++row_count[r + 1];
  }
  for (index_t r = 0; r < n; ++r) {
    row_count[r + 1] += row_count[r];
  }
  std::vector<index_t> cols(edges);
  {
    std::vector<std::uint64_t> fill(row_count.begin(), row_count.end() - 1);
    for (std::uint64_t e = 0; e < edges; ++e) {
      cols[fill[erow[e]]++] = ecol[e];
    }
  }
  erow = {};
  ecol = {};
  const std::vector<double> vals = value_pool(pool, rng);
  Triplets t(n, n);
  t.reserve(edges);
  for (index_t r = 0; r < n; ++r) {
    const auto first = cols.begin() + static_cast<std::ptrdiff_t>(row_count[r]);
    const auto last =
        cols.begin() + static_cast<std::ptrdiff_t>(row_count[r + 1]);
    std::sort(first, last);
    const auto end = std::unique(first, last);
    for (auto it = first; it != end; ++it) {
      const double v = pool == 0 ? rng.next_double(-1.0, 1.0)
                                 : vals[rng.next_below(pool)];
      t.add(r, *it, v);
    }
  }
  return t;
}

std::vector<Matrix> cache_matrices(std::uint64_t seed) {
  const auto rng_for = [seed](std::string_view tag) {
    return Rng(sub_seed(seed, tag));
  };
  std::vector<Matrix> out;
  Rng fem = rng_for("cache-fem");
  out.push_back({"fem", stencil_3d(26, fem)});
  Rng banded = rng_for("cache-banded");
  out.push_back({"banded", spc::gen_banded(20000, 96, 8, banded,
                                           ValueModel::pooled(48))});
  Rng random = rng_for("cache-random");
  out.push_back({"random", spc::gen_random_uniform(15000, 15000, 6, random,
                                                   ValueModel::random())});
  Rng graph = rng_for("cache-graph");
  out.push_back({"graph", rmat(15, 140000, 0, graph)});
  Rng block = rng_for("cache-fem-block");
  out.push_back({"fem-block", spc::gen_fem_blocks(6000, 3, 5, block,
                                                  ValueModel::pooled(64))});
  Rng diag = rng_for("cache-diag");
  out.push_back({"diag", spc::gen_diag_plus_random(33333, 2, diag,
                                                   ValueModel::pooled(16))});
  Rng ragged = rng_for("cache-irregular");
  out.push_back({"irregular", spc::gen_ragged(20000, 20000, 40, 0.2, ragged,
                                              ValueModel::random())});
  Rng kron = rng_for("cache-kronecker");
  const Triplets a =
      scaled(spc::gen_laplacian_2d(32, 32), kron.next_double(0.5, 2.0));
  const Triplets b =
      spc::gen_random_uniform(8, 8, 3, kron, ValueModel::pooled(4));
  out.push_back({"kronecker", spc::gen_kronecker(a, b)});
  return out;
}

std::vector<Matrix> serve_tenants(std::uint64_t seed) {
  const auto rng_for = [seed](std::string_view tag) {
    return Rng(sub_seed(seed, tag));
  };
  std::vector<Matrix> out;
  Rng hot = rng_for("tenant-hot");
  out.push_back({"t0-stencil", stencil_3d(24, hot)});
  Rng banded = rng_for("tenant-banded");
  out.push_back({"t1-banded", spc::gen_banded(15000, 64, 7, banded,
                                              ValueModel::pooled(48))});
  Rng graph = rng_for("tenant-graph");
  out.push_back({"t2-graph", rmat(14, 100000, 0, graph)});
  Rng random = rng_for("tenant-random");
  out.push_back({"t3-random", spc::gen_random_uniform(12000, 12000, 7, random,
                                                      ValueModel::random())});
  return out;
}

Matrix churn_matrix(std::uint64_t seed, std::size_t k) {
  Rng r(sub_seed(seed, "churn-" + std::to_string(k)));
  const auto n = static_cast<index_t>(4000 + r.next_below(4000));
  Matrix m;
  m.name = "arrival-" + std::to_string(k);
  switch (k % 4) {
    case 0:
      m.t = spc::gen_banded(n, 48, 6, r, ValueModel::pooled(32));
      break;
    case 1:
      m.t = spc::gen_random_uniform(n, n, 6, r, ValueModel::random());
      break;
    case 2:
      m.t = rmat(13, 6ULL * n, 16, r);
      break;
    default:
      m.t = scaled(spc::gen_laplacian_2d(n / 64, 64), r.next_double(0.5, 2.0));
      break;
  }
  return m;
}

spc::Vector seeded_vector(std::size_t n, Rng& rng) {
  spc::Vector v(n);
  for (double& x : v) {
    x = rng.next_double(-1.0, 1.0);
  }
  return v;
}

std::vector<Request> poisson_schedule(double rate, double duration_s,
                                      const std::vector<double>& weights,
                                      std::uint32_t xvariants,
                                      double check_fraction, Rng& rng) {
  double total = 0.0;
  for (const double w : weights) {
    total += w;
  }
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration_s) {
      break;
    }
    Request q;
    q.due_s = t;
    double pick = rng.next_double() * total;
    q.tenant = static_cast<std::uint32_t>(weights.size() - 1);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (pick < weights[i]) {
        q.tenant = static_cast<std::uint32_t>(i);
        break;
      }
      pick -= weights[i];
    }
    q.xvar = static_cast<std::uint32_t>(rng.next_below(xvariants));
    q.check = rng.next_bernoulli(check_fraction);
    out.push_back(q);
  }
  return out;
}

std::vector<ChurnStep> churn_plan(std::size_t arrivals, double repeat_fraction,
                                  Rng& rng) {
  std::vector<ChurnStep> out;
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < arrivals; ++i) {
    ChurnStep s;
    if (distinct > 0 && rng.next_bernoulli(repeat_fraction)) {
      s.repeat = true;
      s.matrix = rng.next_below(distinct);
    } else {
      s.matrix = distinct++;
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace perfbench
