/// \file bench_e2_window_slicing.cc
/// \brief E2 — §4.1.3: shared window-aggregation (stream slicing, as in
/// Scotty [87]) vs. per-window recomputation.
///
/// Series: per-element cost and resident state of the naive buffering
/// aggregator vs. the slicing aggregator as the overlap factor (window size
/// / slide) grows. Expected shape: naive cost grows with the overlap factor
/// (every element recomputed in O(size) per closing window); slicing stays
/// flat (each element lifted once, windows combine size/slide partials);
/// slicing state is O(size/slide) partials instead of O(size) raw elements.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cql/expr.h"
#include "dataflow/executor.h"
#include "dataflow/operators.h"
#include "dataflow/window_operator.h"
#include "window/sliding.h"

namespace cq {
namespace {

constexpr size_t kElements = 50000;
constexpr Duration kSlide = 16;

void FeedAll(WindowedAggregator* agg, size_t* peak_state) {
  *peak_state = 0;
  for (size_t i = 0; i < kElements; ++i) {
    Timestamp ts = static_cast<Timestamp>(i);
    benchmark::DoNotOptimize(
        agg->Add(ts, Value(static_cast<int64_t>(i % 97))));
    if (i % 256 == 255) {
      benchmark::DoNotOptimize(agg->AdvanceWatermark(ts - 8));
      *peak_state = std::max(*peak_state, agg->StateSize());
    }
  }
  benchmark::DoNotOptimize(
      agg->AdvanceWatermark(static_cast<Timestamp>(kElements) + 1));
}

void BM_NaivePerWindowRecompute(benchmark::State& state) {
  const Duration overlap = state.range(0);
  const Duration size = kSlide * overlap;
  auto func = std::shared_ptr<AggregateFunction>(
      AggregateFunction::Make(AggregateKind::kSum));
  size_t peak_state = 0;
  for (auto _ : state) {
    auto assigner = std::make_shared<SlidingWindowAssigner>(size, kSlide);
    NaiveWindowAggregator agg(assigner, func);
    FeedAll(&agg, &peak_state);
  }
  state.counters["overlap"] = static_cast<double>(overlap);
  state.counters["peak_state"] = static_cast<double>(peak_state);
  SetPerItemMicros(state, static_cast<double>(kElements));
}
BENCHMARK(BM_NaivePerWindowRecompute)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SlicedSharedAggregation(benchmark::State& state) {
  const Duration overlap = state.range(0);
  const Duration size = kSlide * overlap;
  auto func = std::shared_ptr<AggregateFunction>(
      AggregateFunction::Make(AggregateKind::kSum));
  size_t peak_state = 0;
  for (auto _ : state) {
    auto agg = std::move(SlicingWindowAggregator::Make(size, kSlide, func))
                   .value();
    FeedAll(agg.get(), &peak_state);
  }
  state.counters["overlap"] = static_cast<double>(overlap);
  state.counters["peak_state"] = static_cast<double>(peak_state);
  SetPerItemMicros(state, static_cast<double>(kElements));
}
BENCHMARK(BM_SlicedSharedAggregation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);

void BM_TwoStacksCountWindow(benchmark::State& state) {
  // The count-based ("last N") sliding window: amortised O(1) per element
  // regardless of N, even for the non-invertible MAX.
  const size_t window = static_cast<size_t>(state.range(0));
  auto func = std::shared_ptr<AggregateFunction>(
      AggregateFunction::Make(AggregateKind::kMax));
  for (auto _ : state) {
    TwoStacksSlidingAggregator agg(func);
    for (size_t i = 0; i < kElements; ++i) {
      agg.Push(Value(static_cast<int64_t>(i % 1009)));
      if (agg.Size() > window) agg.Pop();
      benchmark::DoNotOptimize(agg.Query());
    }
  }
  state.counters["window_n"] = static_cast<double>(window);
  SetPerItemMicros(state, static_cast<double>(kElements));
}
BENCHMARK(BM_TwoStacksCountWindow)->Arg(16)->Arg(256)->Arg(4096);

/// Executor-driven keyed sliding-window aggregation, columnar vs per-element:
/// the accumulation kernel. range(0): 0 = per-element reference (every
/// record pushed on its own through Push; labelled "row"), 1 = PushBatch
/// shim (row input converted at the source), 2 = native columnar input. The
/// window kernel consumes the timestamp column and a vectorised
/// aggregate-input column directly, encodes group keys straight from column
/// storage, and folds into dense per-key window slots; the per-element path
/// lifts one tuple at a time through variant dispatch. Output is identical
/// across the three modes. Pane *emission* runs outside the timed region
/// (one final watermark, same code on every mode) so the series measures
/// the accumulation path the columnar refactor targets.
void BM_ExecutorWindowedAggregation(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr size_t kRecords = 16384;
  constexpr size_t kBatch = 1024;

  // Pre-build the input once: keyed records, in timestamp order, no
  // watermarks (the closing watermark is pushed untimed below). Window size
  // is 4x the slide, so every record lands in 4 windows.
  std::vector<StreamBatch> row_batches;
  std::vector<ColumnarBatch> col_batches;
  for (size_t i = 0; i < kRecords; i += kBatch) {
    StreamBatch batch;
    batch.reserve(kBatch);
    for (size_t j = i; j < i + kBatch; ++j) {
      batch.AddRecord(Tuple({Value(static_cast<int64_t>(j % 8)),
                             Value(static_cast<int64_t>(j % 97))}),
                      static_cast<Timestamp>(j));
    }
    col_batches.push_back(std::move(ColumnarBatch::FromRows(batch)).value());
    row_batches.push_back(std::move(batch));
  }

  size_t fired = 0;
  for (auto _ : state) {
    state.PauseTiming();  // window state must start empty each iteration
    auto g = std::make_unique<DataflowGraph>();
    NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    WindowedAggregateConfig cfg;
    cfg.assigner = std::make_shared<SlidingWindowAssigner>(512, 128);
    cfg.key_indexes = {0};
    cfg.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
    cfg.aggs.push_back({AggregateKind::kCount, nullptr, "n"});
    NodeId win =
        g->AddNode(std::make_unique<WindowedAggregateOperator>("win", cfg));
    auto* counter = new CountingSinkOperator("sink");
    NodeId sink = g->AddNode(std::unique_ptr<Operator>(counter));
    (void)g->Connect(src, win);
    (void)g->Connect(win, sink);
    PipelineExecutor exec(std::move(g));
    state.ResumeTiming();

    if (mode == 0) {
      for (const StreamBatch& b : row_batches) {
        for (const StreamElement& e : b.elements()) {
          benchmark::DoNotOptimize(exec.Push(src, e));
        }
      }
    } else if (mode == 2) {
      for (const ColumnarBatch& b : col_batches) {
        benchmark::DoNotOptimize(exec.PushColumnar(src, b));
      }
    } else {
      for (const StreamBatch& b : row_batches) {
        benchmark::DoNotOptimize(exec.PushBatch(src, b));
      }
    }

    state.PauseTiming();  // pane emission: identical code on every mode
    StreamBatch closing;
    closing.AddWatermark(static_cast<Timestamp>(kRecords) + 512);
    benchmark::DoNotOptimize(exec.PushBatch(src, closing));
    fired = counter->count();
    state.ResumeTiming();
  }
  state.SetLabel(mode == 0 ? "row" : (mode == 1 ? "shim" : "columnar"));
  state.counters["panes_fired"] = static_cast<double>(fired);
  SetPerItemMicros(state, static_cast<double>(kRecords));
}
BENCHMARK(BM_ExecutorWindowedAggregation)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace cq
