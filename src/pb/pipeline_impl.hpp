// Pipelined (per-bin task-dataflow) execution of a PB plan — the
// PbSchedule::kPipeline backend of pb_execute (plan_impl.hpp dispatches
// here; barrier execution stays in plan_impl.hpp).
//
// The barrier schedule runs expand, sort/compress and convert as three
// team-wide loops with an implicit barrier between each: every thread
// waits for the slowest thread of every phase, and the whole Cˆ buffer
// goes cold between the expand that wrote a bin and the sort that reads
// it.  But the dependence structure is per bin, not per phase: bin b is
// sortable the moment the *last* expand flush into b lands, regardless of
// how much expanding remains elsewhere.  This file exploits that:
//
//   - expand runs exactly as before (expand_team / expand_narrow_team),
//     with a flush sink that advances a per-bin done-counter; the flush
//     that completes a bin's fill publishes the bin to the flushing
//     thread's work-stealing deque (common/parallel.hpp),
//   - every thread, after finishing its share of expand, becomes a
//     worker: pop own deque LIFO (the bin most recently flushed — still
//     warmest in cache), else steal FIFO from a victim, running each
//     bin's sort + compress + mask filter + CSR row count as one task,
//   - the row count folds into the task (the paper's convert pass 1),
//     reading the survivors while they are cache-hot; only the prefix
//     sum and the scatter (pass 2) remain as a short tail after the
//     region.
//
// Memory-ordering contract (the reason this is TSan-clean by design):
// a flushing thread's tuple stores are ordered before its done-counter
// fetch_add (acq_rel, preceded by an sfence for the non-temporal path);
// the completing thread's fetch_add joins the same RMW chain, so by the
// release-sequence rule every flusher's stores happen-before the
// completion; the deque's release/acquire handoff then carries that
// ordering to whichever worker pops or steals the bin.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/prefix_sum.hpp"
#include "common/timer.hpp"
#include "pb/expand_impl.hpp"
#include "pb/output.hpp"
#include "pb/plan.hpp"
#include "pb/sort_compress_impl.hpp"

namespace pbs::pb {

namespace detail {

// Policy dispatch for the team-callable expand bodies (mirrors
// pb_expand / pb_expand_narrow).
template <typename S, typename Sink>
nnz_t expand_team_any(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                      const SymbolicResult& sym, const PbConfig& cfg,
                      Tuple* out, std::atomic<nnz_t>* cursor, Sink& sink,
                      const MaskSpec& emask) {
  switch (sym.layout.policy) {
    case BinPolicy::kRange:
      return expand_team<BinPolicy::kRange, S>(a, b, sym, cfg, out, cursor,
                                               sink, emask);
    case BinPolicy::kModulo:
      return expand_team<BinPolicy::kModulo, S>(a, b, sym, cfg, out, cursor,
                                                sink, emask);
    case BinPolicy::kAdaptive:
      return expand_team<BinPolicy::kAdaptive, S>(a, b, sym, cfg, out, cursor,
                                                  sink, emask);
  }
  return 0;
}

template <typename S, typename Sink>
nnz_t expand_narrow_team_any(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                             const SymbolicResult& sym, const PbConfig& cfg,
                             narrow_key_t* out_keys, value_t* out_vals,
                             std::atomic<nnz_t>* cursor, Sink& sink,
                             const MaskSpec& emask) {
  switch (sym.layout.policy) {
    case BinPolicy::kRange:
      return expand_narrow_team<BinPolicy::kRange, S>(
          a, b, sym, cfg, out_keys, out_vals, cursor, sink, emask);
    case BinPolicy::kModulo:
      return expand_narrow_team<BinPolicy::kModulo, S>(
          a, b, sym, cfg, out_keys, out_vals, cursor, sink, emask);
    case BinPolicy::kAdaptive:
      return expand_narrow_team<BinPolicy::kAdaptive, S>(
          a, b, sym, cfg, out_keys, out_vals, cursor, sink, emask);
  }
  return 0;
}

// Key-only expand needs no semiring: there is no value to multiply.
template <typename Sink>
nnz_t expand_keyonly_team_any(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                              const SymbolicResult& sym, const PbConfig& cfg,
                              wide_key_t* out_keys, std::atomic<nnz_t>* cursor,
                              Sink& sink, const MaskSpec& emask) {
  switch (sym.layout.policy) {
    case BinPolicy::kRange:
      return expand_keyonly_team<BinPolicy::kRange>(a, b, sym, cfg, out_keys,
                                                    cursor, sink, emask);
    case BinPolicy::kModulo:
      return expand_keyonly_team<BinPolicy::kModulo>(a, b, sym, cfg, out_keys,
                                                     cursor, sink, emask);
    case BinPolicy::kAdaptive:
      return expand_keyonly_team<BinPolicy::kAdaptive>(
          a, b, sym, cfg, out_keys, cursor, sink, emask);
  }
  return 0;
}

template <typename S, typename Sink>
nnz_t expand_narrow_f32_team_any(const mtx::CscMatrix& a,
                                 const mtx::CsrMatrix& b,
                                 const SymbolicResult& sym, const PbConfig& cfg,
                                 narrow_key_t* out_keys, f32_val_t* out_vals,
                                 std::atomic<nnz_t>* cursor, Sink& sink,
                                 const MaskSpec& emask) {
  switch (sym.layout.policy) {
    case BinPolicy::kRange:
      return expand_narrow_f32_team<BinPolicy::kRange, S>(
          a, b, sym, cfg, out_keys, out_vals, cursor, sink, emask);
    case BinPolicy::kModulo:
      return expand_narrow_f32_team<BinPolicy::kModulo, S>(
          a, b, sym, cfg, out_keys, out_vals, cursor, sink, emask);
    case BinPolicy::kAdaptive:
      return expand_narrow_f32_team<BinPolicy::kAdaptive, S>(
          a, b, sym, cfg, out_keys, out_vals, cursor, sink, emask);
  }
  return 0;
}

// Flush sink of the pipelined schedule: counts flushed tuples per bin and
// publishes a bin to this thread's deque the moment its fill completes.
struct PipelineSink {
  std::atomic<nnz_t>* done = nullptr;  ///< per-bin flushed-tuple counters
  const nnz_t* fill = nullptr;         ///< sym.bin_fill
  double* ready_ts = nullptr;          ///< per-bin readiness timestamp
  int* completer = nullptr;            ///< per-bin completing thread
  WorkStealingDeque<int>* my_deque = nullptr;
  int tid = 0;

  void flushed(std::size_t bin, int count) {
    // Order the flush's stores (non-temporal included — flush_fence is an
    // sfence) before the counter add; acq_rel keeps the RMW chain a
    // release sequence so the completion below carries every flusher's
    // stores with it.
    flush_fence();
    credit(bin, static_cast<nnz_t>(count));
  }

  /// Skip credit from a masked expand (expand_impl.hpp): `count` tuples of
  /// this bin were never generated, so the done counter still converges to
  /// the symbolic fill mark — flushed + skipped == flop — and bin
  /// completion is detected exactly as in the unmasked run.  No data was
  /// written, so no flush_fence is needed; the credit may itself complete
  /// the bin.
  void skipped(std::size_t bin, nnz_t count) { credit(bin, count); }

 private:
  void credit(std::size_t bin, nnz_t count) {
    const nnz_t prev = done[bin].fetch_add(count, std::memory_order_acq_rel);
    if (prev + count == fill[bin]) {
      ready_ts[bin] = omp_get_wtime();
      completer[bin] = tid;
      my_deque->push(static_cast<int>(bin));
    }
  }
};

// Per-thread accounting of the pipelined region, reduced into PbTelemetry
// after the join.
struct PipelineThreadStats {
  double expand_busy = 0;
  double sort_busy = 0;
  double compress_busy = 0;
  double count_busy = 0;
  double wait = 0;  ///< Σ over processed bins of (task start − ready)
  double run = 0;   ///< Σ task durations
  nnz_t dropped = 0;       ///< mask-filter drops in this thread's tasks
  nnz_t post_dropped = 0;  ///< post-op drops in this thread's tasks
  int stolen = 0;
};

}  // namespace detail

/// Pipelined pb_execute backend.  Same contract and result as the barrier
/// path (fingerprint and mask shape already checked by the caller).
///
/// Robustness: an internal abort token (linked to the caller's `cancel`)
/// is the region's single unwind signal.  Expand polls it per column, the
/// worker loop per iteration; any in-region exception is captured once,
/// fires the abort, and every thread drains to the join — throwing across
/// an OpenMP region boundary is undefined, and a cancelled expand leaves
/// bins forever unpublished, so the steal loop must not wait on
/// bins_remaining alone.
template <typename S>
PbResult pb_execute_pipeline(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                             const PbPlan& plan, PbWorkspace& workspace,
                             const MaskSpec& mask,
                             const CancelToken* cancel = nullptr,
                             const PbEpilogue& epi = {}) {
  const SymbolicResult& sym = plan.sym;
  const TupleFormat fmt = sym.format;
  const auto nbins = static_cast<std::size_t>(sym.layout.nbins);
  const int nthreads = max_threads();

  PbResult result;
  PbTelemetry& tm = result.stats;
  tm.flop = sym.flop;
  tm.nbins = sym.layout.nbins;
  tm.rows_per_bin = sym.layout.rows_per_bin();
  tm.format = sym.format;
  tm.schedule = PbSchedule::kPipeline;
  const double bpt = tm.tuple_bytes();

  // Fused expand-time mask (same per-run decision as the barrier path).
  // When it engages, the done counters still reach the symbolic fill marks
  // — skipped tuples are credited through PipelineSink::skipped — but the
  // write cursors fall short, so task lengths come from the cursors and
  // the compress-stage filter is disabled (survivors are in-mask by
  // construction).
  const bool expand_masked =
      engage_expand_mask(mask, plan.cfg, a.nrows, b.ncols);
  const MaskSpec emask = expand_masked ? mask : MaskSpec{};
  const MaskSpec cmask = expand_masked ? MaskSpec{} : mask;
  const bool accumulating = epi.accumulate != nullptr;

  // Phase fault points, crossed once per run in phase order exactly as on
  // the barrier path: expand here, sort_compress at the first bin task,
  // convert before the tail.
  FaultInjector::at(FaultPoint::kExpand);

  // ---- shared state ----
  const auto buf_len = static_cast<std::size_t>(sym.bin_offsets.back());
  Tuple* expanded = nullptr;
  NarrowStream ns;
  NarrowF32Stream nf;
  wide_key_t* keys_only = nullptr;
  switch (fmt) {
    case TupleFormat::kNarrow:
      ns = workspace.acquire_narrow(buf_len);
      break;
    case TupleFormat::kNarrowF32:
      nf = workspace.acquire_narrow_f32(buf_len);
      break;
    case TupleFormat::kKeyOnly:
      keys_only = workspace.acquire_keys(buf_len);
      break;
    case TupleFormat::kWide:
      expanded = workspace.acquire(buf_len);
      break;
  }
  workspace.place_bins(sym.bin_offsets, sym.bin_home, sym.format);
  workspace.prepare_scratch(nthreads);

  std::vector<std::atomic<nnz_t>> cursor(nbins);
  std::vector<std::atomic<nnz_t>> done(nbins);
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    cursor[bin].store(sym.bin_offsets[bin], std::memory_order_relaxed);
    done[bin].store(0, std::memory_order_relaxed);
  }
  std::vector<double> ready_ts(nbins, 0.0);
  std::vector<int> completer(nbins, -1);
  std::vector<nnz_t> merged(nbins, 0);

  int nonempty = 0;
  nnz_t max_bin = 0;
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    if (sym.bin_fill[bin] != 0) ++nonempty;
    max_bin = std::max(max_bin, sym.bin_fill[bin]);
  }
  std::atomic<int> bins_remaining{nonempty};
  // Set by whichever bin task crosses the sort_compress fault point first;
  // only touched while the injector is armed.
  std::atomic<bool> sort_compress_crossed{false};

  // One deque per thread; a bin enters exactly one deque (its completer's),
  // so per-deque capacity nbins can never overflow.
  std::vector<std::unique_ptr<WorkStealingDeque<int>>> deques(
      static_cast<std::size_t>(nthreads));
  for (auto& d : deques) {
    d = std::make_unique<WorkStealingDeque<int>>(std::max<std::size_t>(nbins, 1));
  }

  std::vector<detail::PipelineThreadStats> tstats(
      static_cast<std::size_t>(nthreads));

  // Single unwind signal for the whole region (see the function comment);
  // expand reads it through the run-local config below.
  CancelToken abort;
  abort.link(cancel);
  PbConfig run_cfg = plan.cfg;
  run_cfg.cancel = &abort;
  std::exception_ptr error;

  // The result CSR is built incrementally: tasks count rows into
  // rowptr[row + 1] while their bin is cache-hot (race-free — no row spans
  // two bins), and only the prefix sum + scatter run after the join.
  mtx::CsrMatrix c(a.nrows, b.ncols);

  const WideBinOps<S> wide_ops{expanded, &cmask, &epi.post_op};
  const NarrowBinOps<S> narrow_ops{ns.keys, ns.vals, &cmask, &epi.post_op,
                                   &sym.layout, sym.col_bits};
  const KeyOnlyBinOps keyonly_ops{keys_only, &cmask};
  const NarrowF32BinOps<S> f32_ops{nf.keys, nf.vals, &cmask, &epi.post_op,
                                   &sym.layout, sym.col_bits};

  Timer region_timer;

#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    const auto utid = static_cast<std::size_t>(tid);
    detail::PipelineThreadStats& ts = tstats[utid];

    // Per-thread sort scratch, acquired once (slot reuse across tasks).
    // Acquisition can throw (budget rejection, injected OOM); the thread
    // must still reach expand's worksharing construct, so failure is
    // captured here and the thread runs the region as a no-op.
    bool ok = true;
    Tuple* wide_scratch = nullptr;
    NarrowStream narrow_scratch;
    NarrowF32Stream f32_scratch;
    wide_key_t* key_scratch = nullptr;
    try {
      switch (fmt) {
        case TupleFormat::kNarrow:
          narrow_scratch = workspace.acquire_scratch_narrow(
              utid, static_cast<std::size_t>(max_bin));
          break;
        case TupleFormat::kNarrowF32:
          f32_scratch = workspace.acquire_scratch_narrow_f32(
              utid, static_cast<std::size_t>(max_bin));
          break;
        case TupleFormat::kKeyOnly:
          key_scratch = workspace.acquire_scratch_keys(
              utid, static_cast<std::size_t>(max_bin));
          break;
        case TupleFormat::kWide:
          wide_scratch = workspace.acquire_scratch(
              utid, static_cast<std::size_t>(max_bin));
          break;
      }
    } catch (...) {
      ok = false;
#pragma omp critical(pbs_pipeline_error)
      {
        if (error == nullptr) error = std::current_exception();
      }
      abort.request_cancel();
    }

    // One bin's task: sort + compress + mask filter + row count, back to
    // back while the bin is cache-hot.
    auto run_task = [&](int bin) {
      // The load keeps the exchange off every later task's path.
      if (FaultInjector::enabled() &&
          !sort_compress_crossed.load(std::memory_order_relaxed) &&
          !sort_compress_crossed.exchange(true, std::memory_order_relaxed)) {
        FaultInjector::at(FaultPoint::kSortCompress);
      }
      FaultInjector::on_bin();
      const auto ubin = static_cast<std::size_t>(bin);
      const double t0 = omp_get_wtime();
      const nnz_t off = sym.bin_offsets[ubin];
      // The bin's actual tuple count comes from its write cursor, not the
      // symbolic fill mark: a masked expand generates fewer tuples than
      // flop.  Every flusher's cursor add happens-before the completing
      // done add (program order into the acq_rel RMW chain), and the deque
      // handoff carries that ordering here, so a relaxed load is exact.
      const auto len = static_cast<std::size_t>(
          cursor[ubin].load(std::memory_order_relaxed) - off);

      double t1 = t0;
      nnz_t kept = 0;
      nnz_t pre_mask = 0;
      nnz_t kept_mask = 0;
      // A fully masked bin can complete on skip credits alone: nothing to
      // sort (the kernels assume non-empty bins), nothing to count.
      if (len != 0) {
        switch (fmt) {
          case TupleFormat::kNarrow:
            narrow_ops.sort(off, len, narrow_scratch);
            t1 = omp_get_wtime();
            pre_mask = narrow_ops.compress(off, len);
            kept_mask = narrow_ops.filter(bin, off, pre_mask);
            kept = narrow_ops.post_apply(off, kept_mask);
            break;
          case TupleFormat::kNarrowF32:
            f32_ops.sort(off, len, f32_scratch);
            t1 = omp_get_wtime();
            pre_mask = f32_ops.compress(off, len);
            kept_mask = f32_ops.filter(bin, off, pre_mask);
            kept = f32_ops.post_apply(off, kept_mask);
            break;
          case TupleFormat::kKeyOnly:
            keyonly_ops.sort(off, len, key_scratch);
            t1 = omp_get_wtime();
            pre_mask = keyonly_ops.compress(off, len);
            kept_mask = keyonly_ops.filter(bin, off, pre_mask);
            kept = kept_mask;  // value-free: no post-op lane
            break;
          case TupleFormat::kWide:
            wide_ops.sort(off, len, wide_scratch,
                          static_cast<std::size_t>(max_bin));
            t1 = omp_get_wtime();
            pre_mask = wide_ops.compress(off, len);
            kept_mask = wide_ops.filter(bin, off, pre_mask);
            kept = wide_ops.post_apply(off, kept_mask);
            break;
        }
      }
      merged[ubin] = kept;
      ts.dropped += pre_mask - kept_mask;
      ts.post_dropped += kept_mask - kept;
      const double t2 = omp_get_wtime();

      // The folded row count is skipped when accumulating: the union count
      // needs C_old's rows too, and the accumulate tail walks both streams
      // anyway (output_accum.hpp).
      if (!accumulating && kept != 0) {
        switch (fmt) {
          case TupleFormat::kNarrow:
            pb_count_bin_narrow(ns.keys + off, kept, bin, sym.layout,
                                sym.col_bits, c.rowptr.data());
            break;
          // The f32 count pass reuses the narrow counter: keys are
          // identical.
          case TupleFormat::kNarrowF32:
            pb_count_bin_narrow(nf.keys + off, kept, bin, sym.layout,
                                sym.col_bits, c.rowptr.data());
            break;
          case TupleFormat::kKeyOnly:
            pb_count_bin_keyonly(keys_only + off, kept, c.rowptr.data());
            break;
          case TupleFormat::kWide:
            pb_count_bin(expanded + off, kept, c.rowptr.data());
            break;
        }
      }
      const double t3 = omp_get_wtime();

      ts.sort_busy += t1 - t0;
      ts.compress_busy += t2 - t1;
      ts.count_busy += t3 - t2;
      ts.wait += std::max(0.0, t0 - ready_ts[ubin]);
      ts.run += t3 - t0;
      if (completer[ubin] != tid) ++ts.stolen;
      bins_remaining.fetch_sub(1, std::memory_order_acq_rel);
    };

    // Task exceptions must not cross the region join: capture the first,
    // fire the abort, and let every worker drain out.
    auto try_run = [&](int bin) {
      try {
        run_task(bin);
      } catch (...) {
#pragma omp critical(pbs_pipeline_error)
        {
          if (error == nullptr) error = std::current_exception();
        }
        abort.request_cancel();
      }
    };

    detail::PipelineSink sink{done.data(), sym.bin_fill.data(),
                              ready_ts.data(), completer.data(),
                              deques[utid].get(), tid};

    // Expand this thread's share, interleaved (by the sink) with
    // publishing completed bins.  `omp for nowait` inside: threads fall
    // straight through to the worker loop.
    const double e0 = omp_get_wtime();
    switch (fmt) {
      case TupleFormat::kNarrow:
        detail::expand_narrow_team_any<S>(a, b, sym, run_cfg, ns.keys,
                                          ns.vals, cursor.data(), sink,
                                          emask);
        break;
      case TupleFormat::kNarrowF32:
        detail::expand_narrow_f32_team_any<S>(a, b, sym, run_cfg, nf.keys,
                                              nf.vals, cursor.data(), sink,
                                              emask);
        break;
      case TupleFormat::kKeyOnly:
        detail::expand_keyonly_team_any(a, b, sym, run_cfg, keys_only,
                                        cursor.data(), sink, emask);
        break;
      case TupleFormat::kWide:
        detail::expand_team_any<S>(a, b, sym, run_cfg, expanded,
                                   cursor.data(), sink, emask);
        break;
    }
    ts.expand_busy = omp_get_wtime() - e0;

    // Worker loop: own deque first (LIFO — most recently flushed bin,
    // warmest), then steal FIFO round-robin.  Runs until every nonempty
    // bin has been processed by someone — or the abort fires (a cancelled
    // expand leaves bins unpublished, so bins_remaining alone would spin
    // forever).
    int bin = -1;
    while (ok && bins_remaining.load(std::memory_order_acquire) > 0) {
      if (abort.stop_requested_now()) break;
      if (deques[utid]->pop(bin)) {
        try_run(bin);
        continue;
      }
      bool got = false;
      for (int k = 1; k < nthreads && !got; ++k) {
        got = deques[static_cast<std::size_t>((tid + k) % nthreads)]->steal(
            bin);
      }
      if (got) {
        try_run(bin);
      } else {
        // Bins still in flight inside other threads' expand: let them run.
        std::this_thread::yield();
      }
    }
  }

  // Unwind before the validate pass: a cancelled or faulted region leaves
  // cursors/done counters legitimately short of their fill marks, and the
  // typed error must win over the (misleading) logic_error.
  if (error != nullptr) std::rethrow_exception(error);
  throw_if_stopped(cancel);
  // An empty product ran no bin task; cross sort_compress here so every
  // run still counts once.
  if (nonempty == 0) FaultInjector::at(FaultPoint::kSortCompress);

  if (plan.cfg.validate) {
    for (std::size_t bin = 0; bin < nbins; ++bin) {
      // A masked expand legitimately leaves the cursor short of the fill
      // mark (skipped tuples were credited, not written); it must still
      // never overshoot.
      const nnz_t end = cursor[bin].load(std::memory_order_relaxed);
      const nnz_t mark = sym.bin_offsets[bin] + sym.bin_fill[bin];
      if (expand_masked ? end > mark : end != mark) {
        throw std::logic_error("pb_execute(pipeline): bin " +
                               std::to_string(bin) +
                               " cursor does not meet its fill mark");
      }
      if (done[bin].load(std::memory_order_relaxed) != sym.bin_fill[bin]) {
        throw std::logic_error("pb_execute(pipeline): bin " +
                               std::to_string(bin) +
                               " done counter does not meet its fill mark");
      }
    }
  }

  const double region_wall = region_timer.elapsed_s();

  // ---- tail: prefix sum + scatter (the only barrier left); with an
  // accumulate epilogue the tail is the fused union build instead
  // (output_accum.hpp — count + prefix + merge-scatter against C_old) ----
  FaultInjector::at(FaultPoint::kConvert);
  Timer tail_timer;
  if (accumulating) {
    const mtx::CsrMatrix& c_old = *epi.accumulate;
    switch (fmt) {
      case TupleFormat::kNarrow:
        result.c = pb_build_csr_accum_narrow<S>(
            ns.keys, ns.vals, sym.bin_offsets, merged, c_old, sym.layout,
            sym.col_bits, a.nrows, b.ncols, cancel);
        break;
      case TupleFormat::kNarrowF32:
        result.c = pb_build_csr_accum_narrow_f32<S>(
            nf.keys, nf.vals, sym.bin_offsets, merged, c_old, sym.layout,
            sym.col_bits, a.nrows, b.ncols, cancel);
        break;
      case TupleFormat::kKeyOnly:
        result.c = pb_build_csr_accum_keyonly<S>(keys_only, sym.bin_offsets,
                                                 merged, c_old, sym.layout,
                                                 a.nrows, b.ncols, 1.0,
                                                 cancel);
        break;
      case TupleFormat::kWide:
        result.c =
            pb_build_csr_accum<S>(expanded, sym.bin_offsets, merged, c_old,
                                  sym.layout, a.nrows, b.ncols, cancel);
        break;
    }
  } else {
    const nnz_t total =
        counts_to_rowptr(c.rowptr.data(), static_cast<std::size_t>(a.nrows));
    c.colids.resize(static_cast<std::size_t>(total));
    c.vals.resize(static_cast<std::size_t>(total));
#pragma omp parallel for schedule(dynamic, 1)
    for (int bin = 0; bin < sym.layout.nbins; ++bin) {
      // Deadline may expire inside the tail: skip the remaining bins (the
      // partial CSR is discarded) and raise after the join.
      if (stop_requested(cancel)) continue;
      const auto ubin = static_cast<std::size_t>(bin);
      const nnz_t off = sym.bin_offsets[ubin];
      switch (fmt) {
        case TupleFormat::kNarrow:
          pb_scatter_bin_narrow(ns.keys + off, ns.vals + off, merged[ubin],
                                bin, sym.layout, sym.col_bits,
                                c.rowptr.data(), c.colids.data(),
                                c.vals.data());
          break;
        case TupleFormat::kNarrowF32:
          pb_scatter_bin_narrow_f32(nf.keys + off, nf.vals + off,
                                    merged[ubin], bin, sym.layout,
                                    sym.col_bits, c.rowptr.data(),
                                    c.colids.data(), c.vals.data());
          break;
        case TupleFormat::kKeyOnly:
          pb_scatter_bin_keyonly(keys_only + off, merged[ubin],
                                 c.rowptr.data(), c.colids.data(),
                                 c.vals.data(), 1.0);
          break;
        case TupleFormat::kWide:
          pb_scatter_bin(expanded + off, merged[ubin], c.rowptr.data(),
                         c.colids.data(), c.vals.data());
          break;
      }
    }
    result.c = std::move(c);
  }
  throw_if_stopped(cancel);
  const double tail_wall = tail_timer.elapsed_s();

  // ---- telemetry ----
  // Per-phase seconds are max per-thread *busy* times: they overlap one
  // another inside the region, so their sum can exceed wall_seconds — that
  // surplus is exactly what overlap_seconds() reports.  The Table III byte
  // models are schedule-independent and match the barrier path.
  tm.wall_seconds = region_wall + tail_wall;
  nnz_t nnz_c = 0;
  for (const nnz_t m : merged) nnz_c += m;
  tm.nnz_c = nnz_c;
  // Tuples this run actually generated (== flop unless expand masked; the
  // cursors are exact after the join).
  nnz_t generated = sym.flop;
  if (expand_masked) {
    generated = 0;
    for (std::size_t bin = 0; bin < nbins; ++bin) {
      generated += cursor[bin].load(std::memory_order_relaxed) -
                   sym.bin_offsets[bin];
    }
    tm.mask_skipped_expand = sym.flop - generated;
    tm.expand_masked = true;
  }
  for (const auto& ts : tstats) {
    tm.expand.seconds = std::max(tm.expand.seconds, ts.expand_busy);
    tm.sort.seconds = std::max(tm.sort.seconds, ts.sort_busy);
    tm.compress.seconds = std::max(tm.compress.seconds, ts.compress_busy);
    tm.convert.seconds = std::max(tm.convert.seconds, ts.count_busy);
    tm.bin_wait_seconds += ts.wait;
    tm.bin_run_seconds += ts.run;
    tm.bins_stolen += ts.stolen;
    tm.mask_dropped += ts.dropped;
    tm.post_dropped += ts.post_dropped;
  }
  tm.convert.seconds += tail_wall;
  tm.expand.bytes =
      static_cast<double>(kBytesPerTuple) *
          (static_cast<double>(a.nnz()) + static_cast<double>(b.nnz())) +
      bpt * static_cast<double>(generated);
  tm.sort.bytes = bpt * static_cast<double>(generated);
  tm.compress.bytes =
      bpt * static_cast<double>(nnz_c + tm.mask_dropped + tm.post_dropped);
  tm.convert.bytes =
      (bpt + static_cast<double>(sizeof(index_t) + sizeof(value_t))) *
          static_cast<double>(nnz_c) +
      2.0 * static_cast<double>(sizeof(nnz_t)) * static_cast<double>(a.nrows);
  if (accumulating) {
    const auto entry = static_cast<double>(sizeof(index_t) + sizeof(value_t));
    tm.convert.bytes +=
        entry * static_cast<double>(epi.accumulate->nnz()) +      // C_old in
        entry * static_cast<double>(result.c.nnz() - nnz_c);      // extra out
  }

  return result;
}

}  // namespace pbs::pb
