// spmv-cache: SpmvInstance cells timed round-robin.
//
// Builds cells (matrix x format x threads) over cache-resident matrices,
// where decode cost and pool wake-up dominate, times run() calls
// interleaved across every cell so drift hits all cells alike, and
// reports per-call medians. Traced runs add a CG solve on the SPD fem
// matrix.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <set>

#include "inputs.hpp"
#include "oracle.hpp"
#include "params.hpp"
#include "spc/formats/bcsr.hpp"
#include "spc/formats/coo.hpp"
#include "spc/formats/csc.hpp"
#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/dia.hpp"
#include "spc/formats/ell.hpp"
#include "spc/formats/jds.hpp"
#include "spc/formats/sym_csr.hpp"
#include "spc/formats/sym_csr_vi.hpp"
#include "spc/solvers/iterative.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/support/error.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using spc::Format;
using spc::InstanceOptions;
using spc::SpmvInstance;
using spc::Triplets;
using spc::Vector;

struct MatrixCase {
  std::string name;
  Triplets t;
  spc::index_t nrows = 0;
  spc::index_t ncols = 0;
  double nnz = 0.0;
  Vector x;
  Reference ref;
  double ws_bytes = 0.0;  ///< computed CSR working set: arrays + x + y
};

MatrixCase make_case(Matrix m, std::uint64_t seed) {
  MatrixCase c;
  c.name = std::move(m.name);
  c.t = std::move(m.t);
  c.nrows = c.t.nrows();
  c.ncols = c.t.ncols();
  c.nnz = static_cast<double>(c.t.nnz());
  spc::Rng r(sub_seed(seed, "x-" + c.name));
  c.x = seeded_vector(c.ncols, r);
  c.ref = reference_spmv(c.t, c.x);
  c.ws_bytes = 12.0 * c.nnz + 4.0 * (c.nrows + 1) + 8.0 * c.ncols +
               8.0 * c.nrows;
  return c;
}

struct Cell {
  MatrixCase* m = nullptr;
  Format fmt = Format::kCsr;
  std::size_t threads = 1;
  std::unique_ptr<SpmvInstance> inst;
  Vector y;
  double ctor_s = 0.0;
  double encode_s = -1.0;  ///< from_triplets time (traced runs only)
  std::vector<double> samples_ns;
  std::vector<double> traced_ns;  ///< samples of traced rounds
  std::vector<double> plain_ns;   ///< samples of untraced rounds
  std::vector<double> overhead_ns;  ///< wall - max worker busy, per call
  double busy_ns = 0.0;             ///< sum of worker busy time
  double capacity_ns = 0.0;         ///< sum of wall x workers
  double all_calls_ns = 0.0;        ///< every call, warm-up included
  bool pooled() const { return threads > 1 && inst->pool() != nullptr; }

  // Read from the instance by finish(), which then frees it.
  double bytes = 0.0;  ///< matrix_bytes()
  bool tiled = false;
  bool sym = false;
  double sym_reduce_ns = 0.0;
  double imbalance = 0.0;  ///< total_imbalance() over the timed loop
  bool was_pooled = false;

  void finish() {
    bytes = static_cast<double>(inst->matrix_bytes());
    tiled = inst->tiling_active();
    sym = inst->sym_active();
    sym_reduce_ns = static_cast<double>(inst->sym_reduce_ns_total());
    was_pooled = pooled();
    imbalance = was_pooled ? inst->pool()->total_imbalance() : 0.0;
    inst.reset();
    y = Vector();
  }
};

Cell make_cell(MatrixCase& m, Format f, std::size_t threads) {
  Cell c;
  c.m = &m;
  c.fmt = f;
  c.threads = threads;
  return c;
}

/// Times X::from_triplets for the encoder behind `f`; the encoded object
/// is destroyed outside the timed interval.
double encode_seconds(Format f, const Triplets& t, const InstanceOptions& io,
                      SpanLog& log) {
  const auto timed = [&log](auto&& make) {
    ScopedSpan span(log, "formats.from_triplets");
    const std::uint64_t t0 = clock_ns();
    auto m = make();
    const std::uint64_t t1 = clock_ns();
    return static_cast<double>(t1 - t0) * 1e-9;
  };
  spc::CsrDuOptions du = io.du;
  switch (f) {
    case Format::kCsr:
      return timed([&] { return spc::Csr::from_triplets(t); });
    case Format::kCsr16:
      return timed([&] { return spc::Csr16::from_triplets(t); });
    case Format::kCoo:
      return timed([&] { return spc::Coo::from_triplets(t); });
    case Format::kCsc:
      return timed([&] { return spc::Csc::from_triplets(t); });
    case Format::kBcsr:
      return timed([&] {
        return spc::Bcsr::from_triplets(t, io.bcsr_block_rows,
                                        io.bcsr_block_cols);
      });
    case Format::kEll:
      return timed(
          [&] { return spc::Ell::from_triplets(t, io.ell_max_width_factor); });
    case Format::kDia:
      return timed(
          [&] { return spc::Dia::from_triplets(t, io.dia_max_diags); });
    case Format::kJds:
      return timed([&] { return spc::Jds::from_triplets(t); });
    case Format::kCsrDu:
      du.enable_rle = false;
      return timed([&] { return spc::CsrDu::from_triplets(t, du); });
    case Format::kCsrDuRle:
      du.enable_rle = true;
      return timed([&] { return spc::CsrDu::from_triplets(t, du); });
    case Format::kCsrVi:
      return timed([&] { return spc::CsrVi::from_triplets(t); });
    case Format::kCsrDuVi:
      return timed([&] { return spc::CsrDuVi::from_triplets(t, du); });
    case Format::kDcsr:
      return timed([&] { return spc::Dcsr::from_triplets(t); });
    case Format::kSymCsr:
      return timed([&] { return spc::SymCsr::from_triplets(t); });
    case Format::kSymCsrVi:
      return timed([&] { return spc::SymCsrVi::from_triplets(t); });
  }
  return 0.0;
}

/// Constructs the cell's instance; false (and no instance) when the
/// library refuses the format for this matrix with InvalidArgument.
bool build(Cell& c, const InstanceOptions& io, SpanLog& log, Report& rep) {
  try {
    ScopedSpan span(log, "spmv.instance_ctor");
    const std::uint64_t t0 = clock_ns();
    c.inst = std::make_unique<SpmvInstance>(c.m->t, c.fmt, c.threads, io);
    c.ctor_s = static_cast<double>(clock_ns() - t0) * 1e-9;
  } catch (const spc::InvalidArgument& e) {
    std::cerr << "perfbench: " << c.m->name << " " << spc::format_name(c.fmt)
              << ": not applicable (" << e.what() << ")\n";
    return false;
  }
  c.y.assign(c.m->nrows, 0.0);
  c.inst->run(c.m->x, c.y);
  rep.check(mismatches(c.y, c.m->ref, params::kRelTol) == 0,
            c.m->name + " " + spc::format_name(c.fmt) + " first run");
  return true;
}

/// Runs every cell round-robin until `seconds` have passed (and at least
/// `min_rounds` rounds): per round each cell makes `warm` untimed and
/// `reps` timed calls. In a traced run every other round records a span
/// per timed call, and the two halves give the tracing overhead.
void kernel_loop(std::vector<Cell>& cells, double seconds, int warm,
                 int reps, int min_rounds, SpanLog& log) {
  for (Cell& c : cells) {
    if (c.pooled()) {
      c.inst->pool()->busy_reset();
    }
    c.inst->sym_reset();
  }
  const std::uint64_t deadline =
      clock_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t n = cells.size();
  for (int round = 0; round < min_rounds || clock_ns() < deadline; ++round) {
    const bool traced = log.enabled() && round % 2 == 1;
    for (std::size_t k = 0; k < n; ++k) {
      Cell& c = cells[(k + static_cast<std::size_t>(round)) % n];
      for (int w = 0; w < warm; ++w) {
        const std::uint64_t t0 = clock_ns();
        c.inst->run(c.m->x, c.y);
        c.all_calls_ns += static_cast<double>(clock_ns() - t0);
      }
      for (int r = 0; r < reps; ++r) {
        const std::uint64_t t0 = clock_ns();
        if (traced) {
          ScopedSpan span(log, "spmv.run");
          c.inst->run(c.m->x, c.y);
        } else {
          c.inst->run(c.m->x, c.y);
        }
        const double wall = static_cast<double>(clock_ns() - t0);
        c.samples_ns.push_back(wall);
        c.all_calls_ns += wall;
        if (log.enabled()) {
          (traced ? c.traced_ns : c.plain_ns).push_back(wall);
        }
        if (c.pooled()) {
          const spc::ThreadPool& pool = *c.inst->pool();
          double busy_max = 0.0;
          for (std::size_t t = 0; t < pool.size(); ++t) {
            const auto b = static_cast<double>(pool.last_busy_ns(t));
            busy_max = std::max(busy_max, b);
            c.busy_ns += b;
          }
          c.capacity_ns += wall * static_cast<double>(pool.size());
          c.overhead_ns.push_back(std::max(0.0, wall - busy_max));
        }
      }
    }
  }
}

struct SolveStats {
  double solve_s = 0.0;  ///< wall time of the solve
  double iterations = 0.0;
  double spmv_share = 0.0;
  double self_s = 0.0;  ///< solver self time (BLAS-1), from spans
};

/// One CG solve to kCgTol backed by the cell's instance (traced runs);
/// the solution is checked with an independent residual computed from
/// the triplets.
SolveStats solve(Cell& c, std::uint64_t seed, Report& rep, SpanLog& log) {
  spc::Rng r(sub_seed(seed, "cg-b"));
  const Vector b = seeded_vector(c.m->nrows, r);
  spc::SolverOptions so;
  so.rel_tolerance = params::kCgTol;
  so.max_iterations = params::kCgMaxIter;
  Vector x(c.m->ncols, 0.0);
  double spmv_ns = 0.0;
  spc::SolveResult res;
  const std::uint64_t t0 = clock_ns();
  {
    ScopedSpan span(log, "solvers.cg");
    const std::uint64_t parent = span.id();
    const spc::LinOp op = [&](const Vector& in, Vector& out) {
      const std::uint64_t s0 = clock_ns();
      {
        ScopedSpan inner(log, "spmv.run", parent);
        c.inst->run(in, out);
      }
      spmv_ns += static_cast<double>(clock_ns() - s0);
    };
    res = spc::cg(op, b, x, so);
  }
  const double wall = static_cast<double>(clock_ns() - t0);
  const double resid = true_relative_residual(c.m->t, b, x);
  rep.check(res.converged && resid <= params::kCgCheckFactor * params::kCgTol,
            c.m->name + " cg residual " + std::to_string(resid));
  SolveStats st;
  st.solve_s = wall * 1e-9;
  st.iterations = static_cast<double>(res.iterations);
  st.spmv_share = spmv_ns / wall;
  st.self_s = log.self_seconds()["solvers.cg"];
  return st;
}

/// Encodes each distinct (matrix, format) of the cells with from_triplets
/// (traced runs only) and stores the time on every cell that shares it.
void time_encoders(std::vector<Cell>& cells, const InstanceOptions& io,
                   SpanLog& log) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].encode_s >= 0.0) {
      continue;
    }
    const double s = encode_seconds(cells[i].fmt, cells[i].m->t, io, log);
    for (std::size_t j = i; j < cells.size(); ++j) {
      if (cells[j].m == cells[i].m && cells[j].fmt == cells[i].fmt) {
        cells[j].encode_s = s;
      }
    }
  }
}

void report_cells(const std::vector<Cell>& cells, const StreamRoof& roof,
                  Report& rep) {
  std::vector<double> gflops;
  std::vector<double> p50_us;
  std::vector<double> p90_us;
  std::vector<double> ns_nnz_1t;
  std::vector<double> gflops_1t;
  std::vector<double> bytes_nnz;
  std::vector<double> computed_bytes_nnz;
  std::vector<double> gbps;
  std::vector<double> tail_ratio;
  std::vector<double> imbalance;
  std::vector<double> overhead_ns;
  std::vector<double> trace_ratio;
  std::map<std::string, std::vector<double>> ns_nnz_fmt;
  std::map<std::string, std::vector<double>> bytes_fmt;
  std::map<std::string, double> encode_fmt;
  double setup = 0.0;
  double encode = 0.0;
  double encoded_nnz = 0.0;
  double prepare = 0.0;
  double busy = 0.0;
  double capacity = 0.0;
  double sym_reduce_ns = 0.0;
  double sym_run_ns = 0.0;
  double tiled = 0.0;
  std::set<std::pair<const MatrixCase*, Format>> encoded;
  for (const Cell& c : cells) {
    const std::string f = spc::format_name(c.fmt);
    const double med = median(c.samples_ns);
    const double nnz = c.m->nnz;
    std::cout << "cell " << c.m->name << " " << f << " x" << c.threads
              << ": setup " << c.ctor_s << " s, " << c.samples_ns.size()
              << " calls, median " << med * 1e-3 << " us, "
              << med / nnz << " ns/nnz\n";
    setup += c.ctor_s;
    if (c.encode_s >= 0.0) {
      prepare += std::max(0.0, c.ctor_s - c.encode_s);
      if (encoded.insert({c.m, c.fmt}).second) {
        encode += c.encode_s;
        encoded_nnz += nnz;
        encode_fmt[f] += c.encode_s;
      }
    }
    if (c.threads == 1) {
      ns_nnz_1t.push_back(med / nnz);
      gflops_1t.push_back(2.0 * nnz / med);
      continue;
    }
    const double bytes = c.bytes;
    const double computed = bytes + 8.0 * c.m->ncols + 8.0 * c.m->nrows;
    gflops.push_back(2.0 * nnz / med);
    p50_us.push_back(med * 1e-3);
    p90_us.push_back(tail(c.samples_ns, 0.90).value * 1e-3);
    tail_ratio.push_back(tail(c.samples_ns).value / med);
    ns_nnz_fmt[f].push_back(med / nnz);
    bytes_nnz.push_back(bytes / nnz);
    bytes_fmt[f].push_back(bytes / nnz);
    computed_bytes_nnz.push_back(computed / nnz);
    gbps.push_back(computed / med);
    tiled += c.tiled ? 1.0 : 0.0;
    if (c.was_pooled) {
      imbalance.push_back(c.imbalance);
      busy += c.busy_ns;
      capacity += c.capacity_ns;
      overhead_ns.insert(overhead_ns.end(), c.overhead_ns.begin(),
                         c.overhead_ns.end());
    }
    if (c.sym) {
      sym_reduce_ns += c.sym_reduce_ns;
      sym_run_ns += c.all_calls_ns;
    }
    if (!c.traced_ns.empty() && !c.plain_ns.empty()) {
      trace_ratio.push_back(median(c.traced_ns) / median(c.plain_ns));
    }
  }
  rep.set("setup_s", setup);
  rep.set("spmv_gflops", geomean(gflops));
  rep.set("latency_p50_us", geomean(p50_us));
  rep.set("spmv.latency_p90_us", geomean(p90_us));

  rep.set("spmv.cells", static_cast<double>(cells.size()));
  for (const auto& [f, v] : ns_nnz_fmt) {
    rep.set("spmv.ns_per_nnz." + f, geomean(v));
  }
  rep.set("spmv.ns_per_nnz_1t", geomean(ns_nnz_1t));
  rep.set("spmv.gflops_1t", geomean(gflops_1t));
  rep.set("formats.bytes_per_nnz", geomean(bytes_nnz));
  for (const auto& [f, v] : bytes_fmt) {
    set_if_listed(rep, "formats.bytes_per_nnz." + f, geomean(v));
  }
  rep.set("spmv.computed_bytes_per_nnz", geomean(computed_bytes_nnz));
  rep.set("spmv.achieved_gbps", geomean(gbps));
  if (roof.gbps > 0.0) {
    rep.set("spmv.bw_frac", geomean(gbps) / roof.gbps);
  }
  rep.set("spmv.tail_ratio", geomean(tail_ratio));
  rep.set("spmv.tiled_cells", tiled);
  if (sym_run_ns > 0.0) {
    rep.set("spmv.sym_reduce_share", sym_reduce_ns / sym_run_ns);
  }
  rep.set("parallel.busy_frac", capacity > 0.0 ? busy / capacity : 0.0);
  rep.set("parallel.imbalance", geomean(imbalance));
  rep.set("parallel.dispatch_overhead_us", median(overhead_ns) * 1e-3);
  if (encode > 0.0) {
    rep.set("formats.encode_s", encode);
    rep.set("formats.encode_melem_s", encoded_nnz / encode * 1e-6);
    rep.set("spmv.prepare_s", prepare);
    for (const auto& [f, s] : encode_fmt) {
      set_if_listed(rep, "formats.encode_s." + f, s);
    }
  }
  if (!trace_ratio.empty()) {
    rep.set("bench.trace_overhead_frac", geomean(trace_ratio) - 1.0);
  }
}

void report_solve(const SolveStats& s, Report& rep) {
  rep.set("solvers.solve_s", s.solve_s);
  rep.set("solvers.cg_iterations", s.iterations);
  rep.set("solvers.spmv_share", s.spmv_share);
  rep.set("solvers.self_s", s.self_s);
}

void check_after_loop(std::vector<Cell>& cells, Report& rep) {
  for (Cell& c : cells) {
    rep.check(mismatches(c.y, c.m->ref, params::kRelTol) == 0,
              c.m->name + " " + spc::format_name(c.fmt) + " after loop");
  }
}

void finish(std::vector<Cell>& cells) {
  for (Cell& c : cells) {
    c.finish();
  }
}

StreamRoof measure_roof(const Machine& mach, Report& rep) {
  const auto bytes = static_cast<std::size_t>(
      params::kStreamOverLlc * static_cast<double>(mach.llc_bytes));
  const StreamRoof roof = stream_read_roof(bytes, mach.spmv_threads);
  std::cout << "stream-read roof: " << roof.gbps << " GB/s over "
            << roof.array_bytes << " B array (LLC " << mach.llc_bytes
            << " B, " << mach.spmv_threads << " threads)\n";
  rep.set("bench.stream_read_gbps", roof.gbps);
  return roof;
}

InstanceOptions cache_instance_options() {
  InstanceOptions io;
  io.dia_max_diags = params::kDiaMaxDiags;
  io.ell_max_width_factor = params::kEllMaxWidthFactor;
  return io;
}

}  // namespace

void run_spmv_cache(const RunOptions& o, const Machine& mach, Report& rep,
                    SpanLog& log) {
  StreamRoof roof;
  if (o.trace) {
    roof = measure_roof(mach, rep);
  }
  std::vector<MatrixCase> mats;
  std::vector<bool> symmetric;
  for (Matrix& m : cache_matrices(o.seed)) {
    rep.check(m.t.is_sorted_unique(), m.name + " triplets not sorted");
    symmetric.push_back(spc::SymCsr::applicable(m.t));
    mats.push_back(make_case(std::move(m), o.seed));
  }
  std::vector<double> ratios;
  for (const MatrixCase& m : mats) {
    ratios.push_back(m.ws_bytes / static_cast<double>(mach.llc_bytes));
  }
  rep.set("bench.ws_over_llc", geomean(ratios));

  const InstanceOptions io = cache_instance_options();
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    for (const Format f : spc::all_formats()) {
      if (f == Format::kCsr16 && mats[i].ncols > 65536) {
        continue;
      }
      if (spc::format_requires_symmetry(f) && !symmetric[i]) {
        continue;
      }
      for (const std::size_t th : {mach.spmv_threads, std::size_t{1}}) {
        if (th == 1 && !o.trace) {
          continue;  // 1-thread cells feed only per-layer metrics
        }
        Cell c = make_cell(mats[i], f, th);
        if (build(c, io, log, rep)) {
          cells.push_back(std::move(c));
        }
      }
    }
  }
  if (o.trace) {
    time_encoders(cells, io, log);
  }
  kernel_loop(cells, o.seconds, params::kCacheWarm, params::kCacheReps, 4,
              log);
  check_after_loop(cells, rep);
  if (o.trace) {
    // One CG solve on the SPD stencil, backed by its csr cell.
    for (Cell& c : cells) {
      if (c.m->name == "fem" && c.fmt == Format::kCsr &&
          c.threads == mach.spmv_threads) {
        report_solve(solve(c, o.seed, rep, log), rep);
      }
    }
  }
  finish(cells);
  report_cells(cells, roof, rep);
}

}  // namespace perfbench
