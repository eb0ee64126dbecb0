#include "spc/spmv/instance.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "spc/obs/metrics_io.hpp"
#include "spc/obs/trace.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/support/timing.hpp"

namespace spc {

bool openmp_available() {
#ifdef _OPENMP
  return true;
#else
  return false;
#endif
}

void SpmvInstance::dispatch(ThreadPool::RawJob fn) {
#ifdef _OPENMP
  if (opts_.backend == Backend::kOpenMP) {
    const int n = static_cast<int>(nthreads_);
#pragma omp parallel num_threads(n)
    { fn(this, static_cast<std::size_t>(omp_get_thread_num())); }
    return;
  }
#endif
  xpool_->run(fn, this);
}

void SpmvInstance::xcopy_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  self->numa_x_copy_[tid](self->run_args_.x);
}

void SpmvInstance::static_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  self->binding_.per_thread[tid](self->worker_x(tid), self->run_args_.y);
}

void SpmvInstance::steal_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  const value_t* const x = self->worker_x(tid);
  value_t* const y = self->run_args_.y;
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;
  std::uint32_t c = 0;
  // Own chunks first, in ascending row order (streaming locality).
  while (self->deques_[tid].take(&c)) {
    self->binding_.per_chunk[c](x, y);
    ++executed;
  }
  // Then sweep victims — NUMA-near ones first (steal_victims_ order),
  // draining each before moving on. A kContended result means somebody
  // is still active on that deque, so the sweep must run again: only a
  // full pass of kEmpty proves there is no work left anywhere.
  const std::vector<std::uint32_t>& victims = self->steal_victims_[tid];
  bool again = true;
  while (again) {
    again = false;
    bool got_any = false;
    for (const std::uint32_t v : victims) {
      for (;;) {
        const ChunkDeque::Steal r = self->deques_[v].steal(&c);
        if (r == ChunkDeque::Steal::kGot) {
          self->binding_.per_chunk[c](x, y);
          ++executed;
          ++stolen;
          got_any = true;
          continue;
        }
        if (r == ChunkDeque::Steal::kContended) {
          again = true;
        }
        break;
      }
    }
    // A fruitless contended pass means the remaining work is being
    // drained by others; give the CPU away instead of spinning on their
    // deques (on oversubscribed hosts the spin starves the very workers
    // holding the chunks).
    if (again && !got_any) {
      std::this_thread::yield();
    }
  }
  SchedSlot& slot = self->sched_slots_[tid];
  slot.executed += executed;
  slot.stolen += stolen;
  if (stolen != 0) {
    self->sched_steals_counter_->add(stolen);
  }
}

void SpmvInstance::compute_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  // Zero this worker's private y (or conflict window) before its units
  // run; the kernels accumulate into it.
  value_t* y = self->run_args_.y;
  if (!self->private_y_.empty()) {
    Vector& s = self->private_y_[tid];
    std::fill(s.begin(), s.end(), 0.0);
    y = s.data();
  } else {
    value_t* const win = self->sym_win_ptr_[tid];
    const index_t len = self->partition_.row_begin(tid) -
                        self->sym_plan_.win_begin[tid];
    std::fill(win, win + len, 0.0);
  }
  self->binding_.per_thread[tid](self->worker_x(tid), y);
}

void SpmvInstance::reduce_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  value_t* const y = self->run_args_.y;
  if (!self->private_y_.empty()) {
    // Private y: an even row split sums the full-length copies.
    const index_t r0 = self->reduce_rows_.row_begin(tid);
    const index_t r1 = self->reduce_rows_.row_end(tid);
    std::fill(y + r0, y + r1, 0.0);
    for (const Vector& s : self->private_y_) {
      const value_t* const sp = s.data();
      for (index_t r = r0; r < r1; ++r) {
        y[r] += sp[r];
      }
    }
    return;
  }
  // Fold the overlapping windows into this worker's own compute rows
  // (cache/NUMA-local — it just wrote them). Ascending thread order keeps
  // the accumulation deterministic. Thread 0's window is always empty
  // (nothing below row 0), so the fold starts at 1.
  const index_t r0 = self->partition_.row_begin(tid);
  const index_t r1 = self->partition_.row_end(tid);
  for (std::size_t t = 1; t < self->nthreads_; ++t) {
    const index_t wb = self->sym_plan_.win_begin[t];
    const index_t we = self->partition_.row_begin(t);
    const index_t lo = std::max(r0, wb);
    const index_t hi = std::min(r1, we);
    if (lo >= hi) {
      continue;
    }
    const value_t* const win = self->sym_win_ptr_[t];
    for (index_t r = lo; r < hi; ++r) {
      y[r] += win[r - wb];
    }
  }
}

SpmvInstance::~SpmvInstance() = default;
SpmvInstance::SpmvInstance(SpmvInstance&&) noexcept = default;

Status InstanceOptions::validate() const {
  if (bcsr_block_rows < 1 || bcsr_block_cols < 1) {
    return Status::Invalid(
        "bcsr_block_rows/cols must be >= 1 (got " +
        std::to_string(bcsr_block_rows) + "x" +
        std::to_string(bcsr_block_cols) + ")");
  }
  if (!std::isfinite(ell_max_width_factor) || ell_max_width_factor < 0.0) {
    return Status::Invalid(
        "ell_max_width_factor must be a finite factor >= 0 (0 = "
        "unguarded), got " +
        std::to_string(ell_max_width_factor));
  }
  if (tiling.mode == TileMode::kForced && tiling.stripe_bytes == 0) {
    return Status::Invalid(
        "a forced tile stripe needs a byte width (stripe_bytes == 0; "
        "use TileMode::kAuto for a derived width)");
  }
  return Status::Ok();
}

void SpmvInstance::note_decision(const std::string& aspect,
                                 const std::string& requested,
                                 const std::string& resolved,
                                 const std::string& reason) {
  for (const InstanceDecision& d : decisions_) {
    if (d.aspect == aspect && d.resolved == resolved &&
        d.reason == reason) {
      return;
    }
  }
  decisions_.push_back({aspect, requested, resolved, reason});
}

SpmvInstance::SpmvInstance(const Triplets& t, Format format,
                           std::size_t nthreads,
                           const InstanceOptions& opts)
    : format_(format), nthreads_(nthreads), opts_(opts) {
  init(t);
}

SpmvInstance::SpmvInstance(const Triplets& t, Format format,
                           std::shared_ptr<ThreadPool> pool,
                           const InstanceOptions& opts)
    : format_(format),
      nthreads_(pool != nullptr ? pool->size() : 0),
      opts_(opts),
      shared_pool_(std::move(pool)) {
  SPC_CHECK_MSG(shared_pool_ != nullptr,
                "shared-pool SpmvInstance requires a pool");
  // The pool already exists, so the knobs that shape pool construction
  // don't apply; everything else (tiling, NUMA, ...) does.
  opts_.backend = Backend::kPool;
  init(t);
}

void SpmvInstance::init(const Triplets& t) {
  const std::size_t nthreads = nthreads_;
  SPC_CHECK_MSG(nthreads >= 1, "nthreads must be >= 1");
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "SpmvInstance requires sorted/combined triplets");
  if (const Status st = opts_.validate(); !st.ok()) {
    throw InvalidArgument("InstanceOptions: " + st.message());
  }
  nrows_ = t.nrows();
  ncols_ = t.ncols();
  nnz_ = t.nnz();
  runs_counter_ = &obs::Registry::global().counter("spc.spmv.runs");
  run_histo_ = &obs::Registry::global().histogram("spc.spmv.run_ns");

  // Covers encoding plus partitioning/slicing below.
  obs::TraceSpan prepare_span("prepare:" + format_name(format_));
  ops_ = detail::encode_format(format_, t, opts_);

  if (nthreads > 1) {
    // Partition the format's units (rows; block rows, columns or
    // permuted rows for some formats) by its cost profile.
    obs::TraceSpan partition_span("partition");
    const aligned_vector<index_t> costs = ops_->costs(t);
    partition_ = opts_.balance_by_nnz
                     ? partition_rows_by_nnz(costs, nthreads)
                     : partition_rows_even(ops_->units(), nthreads);
    if (ops_->reduce() == detail::Reduce::kSym) {
      sym_plan_ = ops_->plan_windows(partition_, nthreads,
                                     sym_reduce_from_env(opts_.sym_reduce));
      sym_reduce_ = sym_plan_.use_window ? SymReduce::kWindow
                                         : SymReduce::kPrivate;
      sym_active_ = true;
    }

    // The OpenMP backend uses parallel regions instead of the pool
    // (thread binding is then the runtime's job, via OMP_PROC_BIND);
    // without OpenMP support it degrades to the pool (see decisions()).
    if (opts_.backend == Backend::kOpenMP && openmp_available()) {
      opts_.pin_threads = false;
      setup_tiling(t);
    } else {
      if (opts_.backend == Backend::kOpenMP) {
        note_decision("backend", "openmp", "pool",
                      "library built without OpenMP support");
      }
      opts_.backend = Backend::kPool;
      Topology topo;
      std::vector<int> plan;
      if (shared_pool_ != nullptr) {
        // Borrowed pool: placement facts come from its workers. An
        // unpinned pool leaves every worker's node unknowable.
        topo = discover_topology();
        const std::vector<int>& cpus = shared_pool_->worker_cpus();
        if (!cpus.empty() && cpus[0] >= 0) {
          plan = cpus;
        }
        xpool_ = shared_pool_.get();
        run_mu_ = std::make_unique<std::mutex>();
      } else {
        if (opts_.pin_threads) {
          topo = discover_topology();
          plan = plan_placement(topo, nthreads, opts_.placement);
        }
        pool_ = std::make_unique<ThreadPool>(nthreads, plan);
        xpool_ = pool_.get();
      }
      setup_schedule(costs, topo);
      // Tiling after the schedule (the chunk plan defines the execution
      // blocks) and before NUMA placement (which repacks the tiled
      // store's per-worker spans instead of the matrix's).
      setup_tiling(t);
      // NUMA placement needs pinned workers: without a plan a worker's
      // node is unknowable, so the policy resolves to off.
      if (!plan.empty()) {
        setup_numa(topo);
      } else if (const NumaPolicy req = numa_policy_from_env(opts_.numa);
                 req != NumaPolicy::kOff) {
        note_decision("numa", numa_policy_name(req), "off",
                      "workers are not pinned, so per-worker NUMA nodes "
                      "are unknown");
      }
    }
    if (ops_->reduce() == detail::Reduce::kPrivate ||
        (sym_active_ && sym_reduce_ == SymReduce::kPrivate)) {
      private_y_.assign(nthreads, Vector(nrows_, 0.0));
      reduce_rows_ = partition_rows_even(nrows_, nthreads);
    } else if (sym_active_ && sym_win_ptr_.empty()) {
      // setup_numa fills sym_win_ptr_ from arena blocks; otherwise fall
      // back to master-touched per-thread window buffers.
      sym_win_ptr_.resize(nthreads);
      sym_win_store_.reserve(nthreads);
      for (std::size_t th = 0; th < nthreads; ++th) {
        sym_win_store_.emplace_back(
            partition_.row_begin(th) - sym_plan_.win_begin[th], 0.0);
        sym_win_ptr_[th] = sym_win_store_[th].data();
      }
    }
    if (sym_active_) {
      auto& reg = obs::Registry::global();
      sym_reduce_counter_ = &reg.counter("spc.sym.reduce_ns");
      reg.gauge("spc.sym.window_rows")
          .set(static_cast<double>(sym_window_rows()));
    }
  }

  if (nthreads == 1) {
    setup_tiling(t);
  }
  prepare();
}

void SpmvInstance::setup_schedule(const aligned_vector<index_t>& costs,
                                  const Topology& topo) {
  // Only formats whose per-thread work is a contiguous unit range of one
  // kernel, with disjoint rows of y per chunk, can move chunks between
  // workers; the rest run static. Nothing is requested, so nothing is
  // noted in decisions(): schedule() reports what runs.
  if (!ops_->stealable()) {
    return;
  }
  obs::TraceSpan sched_span("schedule:steal");
  usize_t target = chunk_target_nnz(topo.l2_bytes);
  // One chunk per deque degenerates stealing into relocating whole
  // thread ranges; when the matrix is small relative to the L2 target
  // but still has real work, shrink toward >= 4 chunks per worker
  // (never below the planner's 1024-nnz floor).
  const usize_t adaptive = nnz_ / (nthreads_ * 4);
  if (adaptive >= 1024 && adaptive < target) {
    target = adaptive;
  }
  // The planner budgets the same cost profile the partition balanced.
  chunk_plan_ = plan_chunks(costs, partition_, target);
  if (chunk_plan_.nchunks() == 0) {
    chunk_plan_ = ChunkPlan{};
    return;
  }
  sched_ = Schedule::kSteal;

  sched_slots_.assign(nthreads_, SchedSlot{});
  std::vector<std::uint32_t> ids(chunk_plan_.nchunks());
  for (std::size_t c = 0; c < ids.size(); ++c) {
    ids[c] = static_cast<std::uint32_t>(c);
  }
  deques_ = std::vector<ChunkDeque>(nthreads_);
  for (std::size_t th = 0; th < nthreads_; ++th) {
    deques_[th].init(
        ids.data() + chunk_plan_.owner_begin[th],
        chunk_plan_.owner_begin[th + 1] - chunk_plan_.owner_begin[th]);
  }
  // NUMA-near victim order from the pin plan; unknown topology (or a
  // single node) degrades to plain rotation inside the helper.
  std::vector<int> tnodes;
  const std::vector<int>& cpus = xpool_->worker_cpus();
  if (topo.num_nodes() > 1 && !cpus.empty() && cpus[0] >= 0) {
    tnodes.resize(nthreads_);
    for (std::size_t th = 0; th < nthreads_; ++th) {
      tnodes[th] = std::max(0, topo.node_of_cpu(cpus[th]));
    }
  }
  steal_victims_ = steal_victim_order(nthreads_, tnodes);

  auto& reg = obs::Registry::global();
  sched_steals_counter_ = &reg.counter("spc.sched.steals");
  reg.gauge("spc.sched.chunks")
      .set(static_cast<double>(chunk_plan_.nchunks()));
}

std::uint64_t SpmvInstance::sched_steals_total() const {
  std::uint64_t total = 0;
  for (const SchedSlot& s : sched_slots_) {
    total += s.stolen;
  }
  return total;
}

void SpmvInstance::sched_reset() {
  for (SchedSlot& s : sched_slots_) {
    s.executed = 0;
    s.stolen = 0;
  }
}

void SpmvInstance::setup_tiling(const Triplets& t) {
  TiledStoreSpec spec;
  if (!ops_->tile_spec(&spec)) {
    return;
  }
  const TileConfig cfg = tile_config_from_env(opts_.tiling);
  if (cfg.mode == TileMode::kOff) {
    tile_plan_ = TilePlan{};
    tile_plan_.decline_reason = "off";
    return;
  }
  // Setup-only cost: the topology probe and the row-span scan run once
  // per instance, off the timed path.
  const Topology topo = discover_topology();
  tile_plan_ = plan_tiles(cfg, nrows_, ncols_, nnz_, mean_row_span_cols(t),
                          topo.l1d_bytes, topo.l2_bytes);
  auto& reg = obs::Registry::global();
  if (!tile_plan_.active) {
    reg.counter("spc.tile.declined").add();
    note_decision("tiling", tile_config_name(cfg), "off",
                  tile_plan_.decline_reason != nullptr &&
                          *tile_plan_.decline_reason != '\0'
                      ? tile_plan_.decline_reason
                      : "tile plan declined");
    return;
  }
  obs::TraceSpan tiling_span("tiling");

  // Execution blocks: the chunk plan's chunks when stealing (a steal
  // then moves whole blocks, so a block's stripes always execute in
  // column order on one worker), the partition's per-thread ranges under
  // static, the whole matrix when serial.
  const std::vector<index_t> bounds =
      sched_ == Schedule::kSteal ? chunk_plan_.bounds
      : nthreads_ > 1            ? partition_.bounds
                                 : std::vector<index_t>{0, nrows_};
  tile_store_ = build_tiled_store(t, bounds, tile_plan_, spec);
  tiled_ = true;

  reg.counter("spc.tile.instances").add();
  reg.counter("spc.tile.tiles").add(tile_store_.tiles.size());
  reg.gauge("spc.tile.stripes")
      .set(static_cast<double>(tile_plan_.nstripes));
  reg.gauge("spc.tile.stripe_bytes")
      .set(static_cast<double>(tile_plan_.stripe_bytes));
}

std::pair<std::size_t, std::size_t> SpmvInstance::worker_blocks(
    std::size_t w) const {
  if (tiled_) {
    // Blocks are ordered by owner: the chunk plan's owner ranges when
    // stealing, one block per worker under static.
    if (sched_ == Schedule::kSteal) {
      return {chunk_plan_.owner_begin[w], chunk_plan_.owner_begin[w + 1]};
    }
    return {w, w + 1};
  }
  return {partition_.row_begin(w), partition_.row_end(w)};
}

detail::ArraySet SpmvInstance::shared_arrays() const {
  return detail::bases(tiled_ ? detail::tiled_arrays(tile_store_)
                              : ops_->repack_arrays());
}

void SpmvInstance::setup_numa(const Topology& topo) {
  // Only formats whose per-thread work reads row-range spans of plain
  // arrays can be repacked; the rest keep the shared arrays.
  const NumaPolicy requested = numa_policy_from_env(opts_.numa);
  const std::vector<detail::RepackArray> arrays =
      tiled_ ? detail::tiled_arrays(tile_store_) : ops_->repack_arrays();
  if (arrays.empty()) {
    if (requested != NumaPolicy::kOff) {
      note_decision("numa", numa_policy_name(requested), "off",
                    format_name(format_) +
                        " keeps shared arrays (work is not a "
                        "row-partitioned slice of plain arrays)");
    }
    return;
  }
  const NumaPolicy policy =
      resolve_numa_policy(requested, topo.num_nodes());
  if (policy == NumaPolicy::kOff) {
    if (requested != NumaPolicy::kOff) {
      note_decision("numa", numa_policy_name(requested), "off",
                    "machine has a single NUMA node");
    }
    return;
  }
  obs::TraceSpan numa_span("numa:" + numa_policy_name(policy));

  // Each worker's node, from its resolved pin target.
  const std::vector<int>& cpus = xpool_->worker_cpus();
  thread_node_.resize(nthreads_);
  for (std::size_t t = 0; t < nthreads_; ++t) {
    thread_node_[t] = std::max(0, topo.node_of_cpu(cpus[t]));
  }
  std::vector<int> nodes_used;  // sorted distinct nodes with a worker
  for (const int nd : thread_node_) {
    if (std::find(nodes_used.begin(), nodes_used.end(), nd) ==
        nodes_used.end()) {
      nodes_used.push_back(nd);
    }
  }
  std::sort(nodes_used.begin(), nodes_used.end());

  // ---- Reserve: one block per worker, plus the x-mirror blocks. Each
  // worker's block holds the span of every array its units read and, in
  // window mode, its conflict buffer — so the reduction's hot stores
  // land on the owner's node too. ----
  std::size_t x_blocks = 0;
  if (policy == NumaPolicy::kReplicate) {
    x_blocks = nodes_used.size();
  } else if (policy == NumaPolicy::kInterleave) {
    x_blocks = 1;
  }
  arena_ = std::make_unique<FirstTouchArena>(nthreads_ + x_blocks);

  std::vector<detail::SpanSet> spans;
  if (tiled_) {
    for (std::size_t w = 0; w < nthreads_; ++w) {
      const auto [b0, b1] = worker_blocks(w);
      spans.push_back(detail::tiled_spans(tile_store_, b0, b1));
    }
  } else {
    spans = ops_->spans(partition_.bounds);
  }
  const bool window = sym_active_ && sym_reduce_ == SymReduce::kWindow;
  std::vector<std::array<FirstTouchArena::Handle, detail::kMaxArrays>>
      handles(nthreads_);
  std::vector<FirstTouchArena::Handle> win(nthreads_);
  for (std::size_t w = 0; w < nthreads_; ++w) {
    for (std::size_t k = 0; k < arrays.size(); ++k) {
      const detail::Span sp = spans[w][k];
      if (sp.hi > sp.lo) {
        handles[w][k] = arena_->reserve<std::uint8_t>(
            w, (sp.hi - sp.lo) * arrays[k].elem);
      }
    }
    if (window) {
      win[w] = arena_->reserve<value_t>(
          w, static_cast<usize_t>(partition_.row_begin(w) -
                                  sym_plan_.win_begin[w]));
    }
  }

  std::vector<FirstTouchArena::Handle> xh(x_blocks);
  for (std::size_t i = 0; i < x_blocks; ++i) {
    xh[i] = arena_->reserve<value_t>(nthreads_ + i, ncols_);
  }

  // ---- Allocate and first-touch: each worker zero-touches its own
  // block (pinning its pages to its node); one representative worker per
  // node touches that node's x mirror (all pages for replicate, every
  // nparts-th page for interleave). ----
  arena_->allocate();
  std::vector<int> rep(nodes_used.size(), -1);
  for (std::size_t i = 0; i < nodes_used.size(); ++i) {
    for (std::size_t t = 0; t < nthreads_; ++t) {
      if (thread_node_[t] == nodes_used[i]) {
        rep[i] = static_cast<int>(t);
        break;
      }
    }
  }
  xpool_->run([&](std::size_t t) {
    arena_->first_touch(t);
    for (std::size_t i = 0; i < nodes_used.size(); ++i) {
      if (rep[i] != static_cast<int>(t)) {
        continue;
      }
      if (policy == NumaPolicy::kReplicate) {
        arena_->first_touch(nthreads_ + i);
      } else if (policy == NumaPolicy::kInterleave) {
        arena_->first_touch_interleaved(nthreads_, i, nodes_used.size());
      }
    }
  });

  // ---- Copy the spans in (placement is already fixed, so the master
  // can do all copies) and record each copy rebased by its span start,
  // so the closures index it with the shared array's absolute positions.
  // The copies preserve values and order exactly: results are
  // bit-identical to the shared-array binding. ----
  numa_arrays_.assign(nthreads_, shared_arrays());
  if (window) {
    sym_win_ptr_.assign(nthreads_, nullptr);
  }
  for (std::size_t w = 0; w < nthreads_; ++w) {
    for (std::size_t k = 0; k < arrays.size(); ++k) {
      const detail::Span sp = spans[w][k];
      if (sp.hi <= sp.lo) {
        continue;  // nothing read — the shared pointer stays
      }
      const std::size_t elem = arrays[k].elem;
      std::uint8_t* const dst = arena_->data<std::uint8_t>(handles[w][k]);
      std::memcpy(dst,
                  static_cast<const std::uint8_t*>(arrays[k].base) +
                      sp.lo * elem,
                  (sp.hi - sp.lo) * elem);
      numa_arrays_[w][k] = rebase_ptr<const std::uint8_t>(
          dst, static_cast<std::ptrdiff_t>(sp.lo * elem));
    }
    if (window) {
      sym_win_ptr_[w] = arena_->data<value_t>(win[w]);
    }
  }

  // ---- x mirrors: per-thread pointer selection plus the refresh jobs
  // run_parallel dispatches before the kernels. ----
  if (policy == NumaPolicy::kReplicate) {
    numa_x_ptr_.resize(nthreads_);
    numa_x_copy_.resize(nthreads_);
    for (std::size_t i = 0; i < nodes_used.size(); ++i) {
      value_t* const dst = arena_->data<value_t>(xh[i]);
      std::vector<std::size_t> members;
      for (std::size_t t = 0; t < nthreads_; ++t) {
        if (thread_node_[t] == nodes_used[i]) {
          members.push_back(t);
        }
      }
      for (std::size_t r = 0; r < members.size(); ++r) {
        const std::size_t t = members[r];
        const index_t lo = static_cast<index_t>(
            static_cast<usize_t>(ncols_) * r / members.size());
        const index_t hi = static_cast<index_t>(
            static_cast<usize_t>(ncols_) * (r + 1) / members.size());
        numa_x_ptr_[t] = dst;
        numa_x_copy_[t] = [dst, lo, hi](const value_t* x) {
          std::copy(x + lo, x + hi, dst + lo);
        };
      }
    }
  } else if (policy == NumaPolicy::kInterleave) {
    value_t* const dst = arena_->data<value_t>(xh[0]);
    numa_x_ptr_.assign(nthreads_, dst);
    numa_x_copy_.resize(nthreads_);
    for (std::size_t t = 0; t < nthreads_; ++t) {
      const index_t lo = static_cast<index_t>(
          static_cast<usize_t>(ncols_) * t / nthreads_);
      const index_t hi = static_cast<index_t>(
          static_cast<usize_t>(ncols_) * (t + 1) / nthreads_);
      numa_x_copy_[t] = [dst, lo, hi](const value_t* x) {
        std::copy(x + lo, x + hi, dst + lo);
      };
    }
  }

  numa_policy_ = policy;
  auto& reg = obs::Registry::global();
  reg.gauge("spc.numa.nodes").set(static_cast<double>(topo.num_nodes()));
  reg.counter("spc.numa.instances").add();
  reg.counter("spc.numa.repacked_bytes").add(arena_->total_bytes());
  usize_t mirror = 0;
  for (std::size_t i = 0; i < x_blocks; ++i) {
    mirror += arena_->block_bytes(nthreads_ + i);
  }
  if (mirror) {
    reg.counter("spc.numa.x_mirror_bytes").add(mirror);
  }
}

SpmvInstance::NumaResidency SpmvInstance::matrix_residency() const {
  NumaResidency r;
  if (!arena_) {
    r.reason = "numa placement off";
    return r;
  }
  std::string reason;
  for (std::size_t t = 0; t < nthreads_; ++t) {
    std::vector<int> nodes;
    if (!query_page_nodes(arena_->block_base(t), arena_->block_bytes(t),
                          64, &nodes, &reason)) {
      continue;
    }
    for (const int nd : nodes) {
      ++r.pages_sampled;
      if (nd == thread_node_[t]) {
        ++r.pages_local;
      }
    }
  }
  r.available = r.pages_sampled > 0;
  if (!r.available) {
    r.reason = reason.empty() ? "no pages sampled" : reason;
  } else {
    auto& reg = obs::Registry::global();
    reg.counter("spc.numa.residency_pages_sampled").add(r.pages_sampled);
    reg.counter("spc.numa.residency_pages_local").add(r.pages_local);
  }
  return r;
}

void SpmvInstance::prepare() {
  obs::TraceSpan prepare_span("bind:" + format_name(format_));
  tier_ = active_isa_tier();
  // Vector tiers gather through *signed* 32-bit index lanes; a matrix
  // whose columns (or value-index table) could exceed 2^31 must stay on
  // the scalar kernels.
  if (ncols_ >= (index_t{1} << 31)) {
    if (tier_ != IsaTier::kScalar) {
      note_decision("isa", isa_tier_name(tier_), "scalar",
                    "ncols >= 2^31 overflows the signed 32-bit gather "
                    "lanes of the vector kernels");
    }
    tier_ = IsaTier::kScalar;
  }
  const KernelTable& kt = kernel_table(tier_);
  tier_ = kt.tier;  // reflect host/build clamping
  binding_.clear();

  // Tiled instances bind over the stripe-major store (units are its
  // blocks), the rest over the format's own arrays.
  const auto bind = [&](const std::vector<detail::BindRange>& ranges) {
    return tiled_ ? ops_->bind_tiled(kt, tile_store_, ranges)
                  : ops_->bind(kt, ranges);
  };
  if (tiled_) {
    detail::BindRange all;
    all.end = static_cast<index_t>(tile_store_.blocks.size());
    all.arrays = shared_arrays();
    binding_.serial = std::move(bind({all})[0]);
  } else {
    binding_.serial = ops_->bind_serial(kt);
  }
  if (nthreads_ == 1) {
    return;
  }

  // The symmetric closures carry the worker's conflict window: its own
  // rows go straight to y, lower scatters into the window (private
  // mode: everything into the private y the executor hands in).
  const bool window = sym_active_ && sym_reduce_ == SymReduce::kWindow;
  const std::vector<detail::ArraySet> arrays =
      numa_arrays_.empty()
          ? std::vector<detail::ArraySet>(nthreads_, shared_arrays())
          : numa_arrays_;
  const auto range_for = [&](std::size_t owner, index_t b, index_t e) {
    detail::BindRange r;
    r.begin = b;
    r.end = e;
    r.arrays = arrays[owner];
    if (window) {
      r.win = sym_win_ptr_[owner];
      r.win_begin = sym_plan_.win_begin[owner];
      r.direct_begin = partition_.row_begin(owner);
    }
    return r;
  };
  std::vector<detail::BindRange> ranges;
  for (std::size_t w = 0; w < nthreads_; ++w) {
    const auto [b, e] = worker_blocks(w);
    ranges.push_back(range_for(w, static_cast<index_t>(b),
                               static_cast<index_t>(e)));
  }
  binding_.per_thread = bind(ranges);

  // Chunk closures for stealing: one per ChunkPlan entry, bound over the
  // *owner's* arrays (the NUMA-repacked copies when they exist) so a
  // stolen chunk reads exactly the bytes its owner would. Chunk ranges
  // are disjoint, so whichever worker executes a chunk writes only that
  // chunk's rows of y.
  if (sched_ == Schedule::kSteal) {
    ranges.clear();
    for (std::size_t c = 0; c < chunk_plan_.nchunks(); ++c) {
      const std::size_t owner = chunk_plan_.owner[c];
      if (tiled_) {
        ranges.push_back(range_for(owner, static_cast<index_t>(c),
                                   static_cast<index_t>(c + 1)));
      } else {
        ranges.push_back(range_for(owner, chunk_plan_.row_begin(c),
                                   chunk_plan_.row_end(c)));
      }
    }
    binding_.per_chunk = bind(ranges);
  }
}

const CsrDu::UnitHistogram* SpmvInstance::du_histogram() const {
  if (tiled_) {
    // The aggregate over the stripe-local tile streams — the deltas
    // actually decoded.
    return tile_store_.has_du_hist ? &tile_store_.du_hist : nullptr;
  }
  return ops_->du_histogram();
}

double SpmvInstance::sym_window_frac() const {
  if (!sym_active_) {
    return 0.0;
  }
  if (sym_reduce_ == SymReduce::kPrivate) {
    return 1.0;
  }
  const double denom =
      static_cast<double>(nthreads_) * static_cast<double>(nrows_);
  return denom > 0.0 ? static_cast<double>(sym_plan_.total_rows) / denom
                     : 0.0;
}

usize_t SpmvInstance::matrix_bytes() const {
  if (tiled_) {
    // The tiled store replaces the matrix's execution arrays; the VI
    // formats keep their unique-value table.
    return tile_store_.bytes() + ops_->table_bytes();
  }
  return ops_->bytes();
}

void SpmvInstance::run_locked(const Vector& x, Vector& y) {
  // Shared-pool instances serialize their runs: run_args_ and the
  // scheduler state are per-instance, and several engine dispatchers may
  // drive this matrix at once. Owned-pool instances have no mutex and
  // keep the historical zero-overhead path.
  if (run_mu_ != nullptr) {
    std::lock_guard<std::mutex> lk(*run_mu_);
    if (nthreads_ == 1) {
      run_serial(x.data(), y.data());
    } else {
      run_parallel(x, y);
    }
    return;
  }
  if (nthreads_ == 1) {
    run_serial(x.data(), y.data());
  } else {
    run_parallel(x, y);
  }
}

void SpmvInstance::run(const Vector& x, Vector& y) {
  SPC_CHECK_MSG(x.size() == ncols_, "x has wrong dimension");
  SPC_CHECK_MSG(y.size() == nrows_, "y has wrong dimension");
  // The always-on cost is one relaxed shard add (~10 ns). The per-run
  // latency sample needs two clock reads — noticeable on sub-µs tiny
  // kernels — so it only runs while an observability sink is active.
  const bool sample =
      obs::Tracer::global().enabled() || obs::MetricsSink::global().enabled();
  const std::uint64_t t0 = sample ? now_ns() : 0;
  run_locked(x, y);
  runs_counter_->add();
  if (sample) {
    const std::uint64_t t1 = now_ns();
    run_histo_->record(t1 >= t0 ? t1 - t0 : 0);
  }
}

std::uint64_t SpmvInstance::run_probe(const Vector& x, Vector& y) {
  SPC_CHECK_MSG(x.size() == ncols_, "x has wrong dimension");
  SPC_CHECK_MSG(y.size() == nrows_, "y has wrong dimension");
  const std::uint64_t t0 = now_ns();
  run_locked(x, y);
  const std::uint64_t t1 = now_ns();
  runs_counter_->add();
  return t1 >= t0 ? t1 - t0 : 0;
}

bool SpmvInstance::can_run_on_caller() const {
  // The two-phase paths' serial kernel reassociates the sums — not
  // bit-identical to the pooled run.
  return !sym_active_ && private_y_.empty();
}

bool SpmvInstance::run_on_caller(const Vector& x, Vector& y) {
  SPC_CHECK_MSG(x.size() == ncols_, "x has wrong dimension");
  SPC_CHECK_MSG(y.size() == nrows_, "y has wrong dimension");
  if (!can_run_on_caller()) {
    return false;
  }
  // No run_mu_ here: the serial kernel reads only the immutable prepared
  // arrays and writes only the caller's y — safe alongside concurrent
  // pooled runs of the same instance.
  const bool sample =
      obs::Tracer::global().enabled() || obs::MetricsSink::global().enabled();
  const std::uint64_t t0 = sample ? now_ns() : 0;
  binding_.serial(x.data(), y.data());
  runs_counter_->add();
  if (sample) {
    const std::uint64_t t1 = now_ns();
    run_histo_->record(t1 >= t0 ? t1 - t0 : 0);
  }
  return true;
}

void SpmvInstance::run_serial(const value_t* x, value_t* y) {
  binding_.serial(x, y);
}

void SpmvInstance::run_parallel(const Vector& x, Vector& y) {
  // Everything was fixed by prepare(); the timed path is the
  // raw-callable dispatch — one function-pointer call per worker, no
  // std::function construction. The replicate/interleave x policies
  // add a refresh phase — each worker copies its chunk of x into the
  // node-placed mirror — and worker_x() swaps in the per-thread mirror
  // pointer.
  run_args_.x = x.data();
  run_args_.y = y.data();
  if (!numa_x_copy_.empty()) {
    dispatch(&SpmvInstance::xcopy_job);
  }

  // Two-phase execution (private-y and symmetric reductions): zero +
  // compute into the private copies or the shared y and the conflict
  // windows, then the reduction. When the window plan has no conflict
  // rows at all, the reduction phase is skipped entirely.
  if (sym_active_ || !private_y_.empty()) {
    dispatch(&SpmvInstance::compute_job);
    if (private_y_.empty() && sym_plan_.total_rows == 0) {
      return;
    }
    const std::uint64_t t0 = now_ns();
    dispatch(&SpmvInstance::reduce_job);
    if (sym_active_) {
      const std::uint64_t t1 = now_ns();
      const std::uint64_t dt = t1 >= t0 ? t1 - t0 : 0;
      sym_reduce_ns_ += dt;
      sym_reduce_counter_->add(dt);
    }
    return;
  }

  // The OpenMP backend always runs static (setup_schedule is pool-only).
  if (sched_ == Schedule::kStatic) {
    dispatch(&SpmvInstance::static_job);
    return;
  }
  // Refill every deque with its owner's chunks; the pool's dispatch
  // handshake publishes these stores to the workers.
  for (ChunkDeque& d : deques_) {
    d.reset();
  }
  dispatch(&SpmvInstance::steal_job);
}

Vector spmv_simple(const Triplets& t, const Vector& x) {
  const Csr m = Csr::from_triplets(t);
  Vector y(t.nrows(), 0.0);
  spmv(m, x.data(), y.data());
  return y;
}

}  // namespace spc
