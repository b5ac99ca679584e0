#include "dataflow/operator.h"

#include "runtime/columnar_batch.h"

namespace cq {

void Collector::EmitColumnar(ColumnarBatch run) {
  StreamBatch rows = run.ToRows();
  for (const StreamElement& e : rows) Emit(e);
}

void VectorCollector::EmitColumnar(ColumnarBatch run) {
  if (run.SelectedCount() == 0) return;
  if (run_ != nullptr && out_->empty() && !held_) {
    *run_ = std::move(run);
    held_ = true;
    return;
  }
  if (held_) SpillRun();
  run.AppendRowsTo(out_, 0, run.num_rows());
}

void VectorCollector::SpillRun() {
  held_ = false;
  run_->AppendRowsTo(out_, 0, run_->num_rows());
  *run_ = ColumnarBatch();
}

}  // namespace cq
