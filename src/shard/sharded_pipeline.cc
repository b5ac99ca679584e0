#include "shard/sharded_pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "dataflow/operators.h"
#include "ft/fault.h"

namespace cq::shard {

namespace {
constexpr uint32_t kMetaVersion = 1;

/// Spin-then-sleep backoff for the multi-input poll loop: a task with
/// several single-producer inputs cannot park in one channel's blocking Pop
/// (data arriving only on another input would stall it forever), so it
/// round-robins TryPop and backs off when every input is empty.
void Backoff(size_t* spins) {
  if (++*spins < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}
}  // namespace

ShardedPipeline::ShardedPipeline(size_t nshards, ChainFactory factory,
                                 std::vector<size_t> ingest_key,
                                 ShardedPipelineOptions options)
    : nshards_(nshards == 0 ? 1 : nshards),
      factory_(std::move(factory)),
      ingest_key_(std::move(ingest_key)),
      options_(options) {}

ShardedPipeline::~ShardedPipeline() {
  if (started_ && !finished_) {
    for (auto& t : tasks_[0]) t->inputs[0]->Close();
    for (auto& stage : tasks_) {
      for (auto& t : stage) {
        if (t->thread.joinable()) t->thread.join();
      }
    }
  }
}

Status ShardedPipeline::Start() {
  if (started_) return Status::InvalidArgument("pipeline already started");

  // Plan on a probe copy of the chain (never executed).
  CQ_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<Operator>> probe,
                      factory_(0));
  std::vector<const Operator*> probe_ptrs;
  probe_ptrs.reserve(probe.size());
  for (const auto& op : probe) probe_ptrs.push_back(op.get());
  CQ_ASSIGN_OR_RETURN(stages_, ShardPlanner::PlanChain(probe_ptrs, ingest_key_));

  stage_parts_.clear();
  for (const ChainStage& st : stages_) {
    stage_parts_.emplace_back(nshards_, st.partition_key);
  }

  tasks_.clear();
  tasks_.resize(stages_.size());
  for (size_t s = 0; s < stages_.size(); ++s) {
    tasks_[s].resize(nshards_);
    for (size_t i = 0; i < nshards_; ++i) {
      tasks_[s][i] = std::make_unique<Task>();
      CQ_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<Operator>> chain,
                          factory_(i));
      if (chain.size() != probe.size()) {
        return Status::InvalidArgument(
            "chain factory returned differently shaped chains");
      }
      std::vector<std::unique_ptr<Operator>> ops;
      for (size_t k = stages_[s].begin; k < stages_[s].end; ++k) {
        ops.push_back(std::move(chain[k]));
      }
      CQ_RETURN_NOT_OK(BuildTask(s, i, std::move(ops)));
    }
  }

  pending_.clear();
  pending_.resize(nshards_);
  routed_.assign(nshards_, 0);
  started_ = true;

  // Threads start only after the full grid exists: a task pushes into the
  // next stage's channels, which must be constructed first.
  for (size_t s = 0; s < stages_.size(); ++s) {
    for (size_t i = 0; i < nshards_; ++i) {
      tasks_[s][i]->thread = std::thread(&ShardedPipeline::TaskLoop, this, s, i);
    }
  }
  return Status::OK();
}

Status ShardedPipeline::BuildTask(size_t stage, size_t shard,
                                  std::vector<std::unique_ptr<Operator>> chain) {
  Task& t = *tasks_[stage][shard];
  auto graph = std::make_unique<DataflowGraph>();
  NodeId prev = graph->AddNode(std::make_unique<PassThroughOperator>("shard-entry"));
  t.source = prev;
  for (auto& op : chain) {
    NodeId id = graph->AddNode(std::move(op));
    CQ_RETURN_NOT_OK(graph->Connect(prev, id));
    prev = id;
  }
  if (stage + 1 == stages_.size()) {
    t.output = std::make_unique<BoundedStream>();
    NodeId sink = graph->AddNode(
        std::make_unique<CollectSinkOperator>("shard-sink", t.output.get()));
    CQ_RETURN_NOT_OK(graph->Connect(prev, sink));
  } else {
    auto exchange = std::make_unique<HashExchangeOperator>(
        "shard-exchange", stage_parts_[stage + 1]);
    t.exchange = exchange.get();
    NodeId id = graph->AddNode(std::move(exchange));
    CQ_RETURN_NOT_OK(graph->Connect(prev, id));
  }
  t.executor = std::make_unique<PipelineExecutor>(std::move(graph));
  t.executor->set_columnar_enabled(columnar_enabled_);

  const size_t nin = stage == 0 ? 1 : nshards_;
  for (size_t p = 0; p < nin; ++p) {
    t.inputs.push_back(std::make_unique<Channel>(options_.channel_credits));
  }
  t.barriered.assign(nin, 0);
  t.input_done.assign(nin, 0);
  t.producer_wm.assign(nin, kMinTimestamp);
  t.aligner = std::make_unique<ft::BarrierAligner>(
      nin, [this, stage, shard](uint64_t epoch,
                                Result<std::vector<std::string>> collected) {
        // Runs on this task's own thread (the one reporting the last input).
        if (!collected.ok()) {
          Task& tt = *tasks_[stage][shard];
          // Still report the slot: the coordinator's epoch must complete
          // (with this error) rather than wait forever on a lost snapshot.
          if (barrier_handler_) {
            barrier_handler_(epoch, 1 + stage * nshards_ + shard,
                             collected.status());
          }
          if (epoch > tt.last_reported_epoch) tt.last_reported_epoch = epoch;
          if (tt.align_status.ok()) tt.align_status = collected.status();
          return;
        }
        CompleteAlignment(stage, shard, epoch);
      });
  return Status::OK();
}

// --- producer side ---------------------------------------------------------

Status ShardedPipeline::Send(Tuple tuple, Timestamp ts) {
  if (!started_ || finished_) {
    return Status::InvalidArgument("pipeline not started");
  }
  const size_t shard = stage_parts_[0].ShardOfTuple(tuple);
  ++routed_[shard];
  if (!shard_records_.empty()) shard_records_[shard]->Increment();
  pending_[shard].AddRecord(std::move(tuple), ts);
  if (pending_[shard].size() >= options_.batch_size) return FlushShard(shard);
  return Status::OK();
}

Status ShardedPipeline::PushBatch(const StreamBatch& batch) {
  if (!started_ || finished_) {
    return Status::InvalidArgument("pipeline not started");
  }
  if (batch.columnar() != nullptr) return PushColumnar(*batch.columnar());
  for (const StreamElement& e : batch.elements()) {
    if (e.is_barrier()) {
      return Status::InvalidArgument("barriers enter via InjectBarrier");
    }
    if (e.is_record()) {
      const size_t shard = stage_parts_[0].ShardOfTuple(e.tuple);
      ++routed_[shard];
      if (!shard_records_.empty()) shard_records_[shard]->Increment();
      pending_[shard].Add(e);
    } else {
      // Watermarks are broadcast, keeping their position in every shard's
      // stream relative to the records around them.
      for (auto& p : pending_) p.Add(e);
    }
  }
  for (size_t i = 0; i < nshards_; ++i) {
    if (pending_[i].size() >= options_.batch_size) CQ_RETURN_NOT_OK(FlushShard(i));
  }
  return Status::OK();
}

Status ShardedPipeline::PushColumnar(const ColumnarBatch& batch) {
  if (!started_ || finished_) {
    return Status::InvalidArgument("pipeline not started");
  }
  CQ_ASSIGN_OR_RETURN(std::vector<ColumnarBatch> splits,
                      SplitColumnarBatch(batch, stage_parts_[0]));
  for (size_t i = 0; i < nshards_; ++i) {
    if (splits[i].empty()) continue;
    // Ship any buffered rows first so the payload keeps stream order.
    CQ_RETURN_NOT_OK(FlushShard(i));
    const size_t rows = splits[i].num_rows();
    routed_[i] += rows;
    if (!shard_records_.empty() && rows > 0) shard_records_[i]->Increment(rows);
    StreamBatch envelope;
    envelope.set_trace(splits[i].trace());
    envelope.set_columnar(std::make_shared<ColumnarBatch>(std::move(splits[i])));
    Status st = tasks_[0][i]->inputs[0]->Push(std::move(envelope));
    if (!st.ok()) return TaskStatus(0, i).ok() ? st : TaskStatus(0, i);
  }
  return Status::OK();
}

Status ShardedPipeline::BroadcastWatermark(Timestamp watermark) {
  if (!started_ || finished_) {
    return Status::InvalidArgument("pipeline not started");
  }
  for (size_t i = 0; i < nshards_; ++i) {
    pending_[i].AddWatermark(watermark);
    CQ_RETURN_NOT_OK(FlushShard(i));
  }
  return Status::OK();
}

Status ShardedPipeline::Flush() {
  for (size_t i = 0; i < nshards_; ++i) CQ_RETURN_NOT_OK(FlushShard(i));
  UpdateSkewGauge();
  return Status::OK();
}

Status ShardedPipeline::FlushShard(size_t shard) {
  if (pending_[shard].empty()) return Status::OK();
  StreamBatch batch;
  std::swap(batch, pending_[shard]);
  Status st = tasks_[0][shard]->inputs[0]->Push(std::move(batch));
  if (!st.ok() && !TaskStatus(0, shard).ok()) return TaskStatus(0, shard);
  return st;
}

Status ShardedPipeline::TaskStatus(size_t stage, size_t shard) const {
  const Task& t = *tasks_[stage][shard];
  if (t.failed.load(std::memory_order_acquire)) return t.status;
  return Status::OK();
}

Result<BoundedStream> ShardedPipeline::Finish() {
  if (!started_) return Status::InvalidArgument("pipeline not started");
  if (finished_) return Status::InvalidArgument("pipeline already finished");
  finished_ = true;
  Status flush = Flush();  // best effort; task failures surface below
  for (auto& t : tasks_[0]) t->inputs[0]->Close();
  for (auto& stage : tasks_) {
    for (auto& t : stage) {
      if (t->thread.joinable()) t->thread.join();
    }
  }
  UpdateSkewGauge();
  for (size_t s = 0; s < tasks_.size(); ++s) {
    for (size_t i = 0; i < nshards_; ++i) {
      CQ_RETURN_NOT_OK(TaskStatus(s, i));
    }
  }
  CQ_RETURN_NOT_OK(flush);

  // Deterministic merge of the final-stage outputs, mirroring
  // ParallelPipeline::Finish.
  std::vector<StreamElement> all;
  for (auto& t : tasks_.back()) {
    for (const StreamElement& e : *t->output) {
      if (e.is_record()) all.push_back(e);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const StreamElement& a, const StreamElement& b) {
                     if (a.timestamp != b.timestamp) {
                       return a.timestamp < b.timestamp;
                     }
                     return a.tuple.Compare(b.tuple) < 0;
                   });
  BoundedStream out;
  for (StreamElement& e : all) out.Append(std::move(e));
  return out;
}

// --- task threads ----------------------------------------------------------

void ShardedPipeline::TaskLoop(size_t stage, size_t shard) {
  Task& t = *tasks_[stage][shard];
  const size_t nin = t.inputs.size();

  if (nin == 1) {
    // Single input: park in the blocking Pop (barrier alignment for fan-in
    // one completes synchronously inside ProcessEnvelope, so the loop never
    // blocks while an epoch is pending).
    StreamBatch batch;
    while (t.inputs[0]->Pop(&batch)) {
      Status st = ProcessEnvelope(stage, shard, 0, std::move(batch));
      if (st.ok()) st = DrainExchange(stage, shard);
      t.inputs[0]->Acknowledge();
      batch.clear();
      if (!st.ok()) {
        FailTask(stage, shard, std::move(st));
        return;
      }
    }
  } else {
    size_t done_count = 0;
    size_t spins = 0;
    size_t cursor = 0;
    while (done_count < nin) {
      bool progressed = false;
      for (size_t k = 0; k < nin; ++k) {
        const size_t p = (cursor + k) % nin;
        if (t.input_done[p] || t.barriered[p]) continue;
        StreamBatch batch;
        if (t.inputs[p]->TryPop(&batch)) {
          cursor = p + 1;  // round-robin fairness across producers
          Status st = ProcessEnvelope(stage, shard, p, std::move(batch));
          if (st.ok()) st = DrainExchange(stage, shard);
          t.inputs[p]->Acknowledge();
          if (!st.ok()) {
            FailTask(stage, shard, std::move(st));
            return;
          }
          progressed = true;
          break;
        }
        if (t.inputs[p]->closed()) {
          t.input_done[p] = 1;
          ++done_count;
          // A producer that dies mid-epoch can never deliver its barrier;
          // fail fast instead of stalling alignment forever.
          if (std::find(t.barriered.begin(), t.barriered.end(), char{1}) !=
              t.barriered.end()) {
            FailTask(stage, shard,
                     Status::Internal("input closed during barrier alignment"));
            return;
          }
          Status st = RecomputeMergedWatermark(t);
          if (st.ok()) st = DrainExchange(stage, shard);
          if (!st.ok()) {
            FailTask(stage, shard, std::move(st));
            return;
          }
          progressed = true;
          break;
        }
      }
      if (progressed) {
        spins = 0;
      } else if (done_count < nin) {
        Backoff(&spins);
      }
    }
  }

  Status st = DrainExchange(stage, shard);
  if (!st.ok()) {
    FailTask(stage, shard, std::move(st));
    return;
  }
  CloseDownstream(stage, shard);
}

Status ShardedPipeline::ProcessEnvelope(size_t stage, size_t shard,
                                        size_t producer, StreamBatch batch) {
  CQ_RETURN_NOT_OK(
      ft::FaultInjector::Global().Hit(ft::faultpoint::kWorkerProcess));
  Task& t = *tasks_[stage][shard];
  const size_t nin = t.inputs.size();
  const bool traced =
      batch.trace().sampled() || batch.trace().ingest_ns != 0;
  if (traced) t.executor->SetActiveTrace(batch.trace());

  Status st;
  if (batch.columnar() != nullptr) {
    // Columnar payload envelope: straight to the columnar entry. Payloads
    // crossing an exchange carry no watermark marks (exchanges ship
    // watermarks as row elements), so the per-producer merge below cannot
    // be bypassed; ingest payloads (single producer) may carry marks.
    st = t.executor->PushColumnar(t.source, std::move(*batch.columnar()));
  } else {
    const std::vector<StreamElement>& elems = batch.elements();
    // A watermark needs interception only when several producers must be
    // min-merged; barriers always stop at the runtime layer.
    bool intercept = false;
    for (const StreamElement& e : elems) {
      if (e.is_barrier() || (e.is_watermark() && nin > 1)) {
        intercept = true;
        break;
      }
    }
    if (!intercept) {
      st = t.executor->PushBatch(t.source, batch);
    } else {
      auto plain = [&](const StreamElement& e) {
        return e.is_record() || (e.is_watermark() && nin == 1);
      };
      size_t a = 0;
      while (a < elems.size() && st.ok()) {
        if (plain(elems[a])) {
          size_t b = a + 1;
          while (b < elems.size() && plain(elems[b])) ++b;
          StreamBatch run(std::vector<StreamElement>(elems.begin() + a,
                                                     elems.begin() + b));
          run.set_trace(batch.trace());
          st = t.executor->PushBatch(t.source, run);
          a = b;
        } else if (elems[a].is_watermark()) {
          st = MergeWatermark(t, producer, elems[a].timestamp);
          ++a;
        } else {
          // Alignment needs a barrier from every producer, and one that
          // has already closed can never deliver it: fail instead of
          // parking this input behind an epoch that cannot complete.
          if (std::find(t.input_done.begin(), t.input_done.end(), char{1}) !=
              t.input_done.end()) {
            st = Status::Internal("input closed during barrier alignment");
            break;
          }
          // Producers place a barrier as the last element of its envelope,
          // so parking this input here cannot reorder data behind it.
          t.barriered[producer] = 1;
          t.aligner->Report(elems[a].barrier_epoch(), producer, std::string());
          ++a;
        }
      }
    }
  }

  if (traced) t.executor->ClearActiveTrace();
  if (st.ok() && !t.align_status.ok()) st = t.align_status;
  return st;
}

Status ShardedPipeline::MergeWatermark(Task& t, size_t producer, Timestamp ts) {
  if (ts > t.producer_wm[producer]) t.producer_wm[producer] = ts;
  Timestamp merged = kMaxTimestamp;
  for (size_t p = 0; p < t.producer_wm.size(); ++p) {
    if (t.input_done[p]) continue;  // closed producers no longer hold it down
    merged = std::min(merged, t.producer_wm[p]);
  }
  if (merged > t.merged_wm) {
    t.merged_wm = merged;
    return t.executor->PushWatermark(t.source, merged);
  }
  return Status::OK();
}

Status ShardedPipeline::RecomputeMergedWatermark(Task& t) {
  Timestamp merged = kMaxTimestamp;
  bool any_open = false;
  for (size_t p = 0; p < t.producer_wm.size(); ++p) {
    if (t.input_done[p]) continue;
    any_open = true;
    merged = std::min(merged, t.producer_wm[p]);
  }
  // Never fabricate an end-of-stream watermark at close: unsharded
  // execution does not flush open windows on Finish, so neither do we.
  if (!any_open || merged <= t.merged_wm) return Status::OK();
  t.merged_wm = merged;
  return t.executor->PushWatermark(t.source, merged);
}

void ShardedPipeline::CompleteAlignment(size_t stage, size_t shard,
                                        uint64_t epoch) {
  Task& t = *tasks_[stage][shard];
  Result<std::string> slot = SnapshotTaskSlot(stage, shard);
  if (barrier_handler_) {
    barrier_handler_(epoch, 1 + stage * nshards_ + shard, std::move(slot));
  } else if (!slot.ok() && t.align_status.ok()) {
    t.align_status = slot.status();
  }
  if (epoch > t.last_reported_epoch) t.last_reported_epoch = epoch;
  // Forward the barrier: everything emitted pre-barrier first, then one
  // barrier envelope into every next-stage shard at our producer slot.
  if (stage + 1 < stages_.size()) {
    Status st = DrainExchange(stage, shard);
    for (size_t j = 0; j < nshards_ && st.ok(); ++j) {
      StreamBatch envelope;
      envelope.Add(StreamElement::Barrier(epoch));
      st = tasks_[stage + 1][j]->inputs[shard]->Push(std::move(envelope));
    }
    if (!st.ok() && t.align_status.ok()) t.align_status = std::move(st);
  }
  std::fill(t.barriered.begin(), t.barriered.end(), char{0});
}

Status ShardedPipeline::DrainExchange(size_t stage, size_t shard) {
  Task& t = *tasks_[stage][shard];
  if (t.exchange == nullptr) return Status::OK();
  for (size_t j = 0; j < nshards_; ++j) {
    std::vector<StreamBatch> units = t.exchange->TakePending(j);
    for (StreamBatch& unit : units) {
      if (!exchange_batches_.empty()) {
        exchange_batches_[j]->Increment();
        exchange_bytes_[j]->Increment(
            unit.columnar() != nullptr
                ? unit.columnar()->ApproxBytes()
                : unit.size() * sizeof(StreamElement));
      }
      CQ_RETURN_NOT_OK(tasks_[stage + 1][j]->inputs[shard]->Push(std::move(unit)));
    }
  }
  return Status::OK();
}

void ShardedPipeline::FailTask(size_t stage, size_t shard, Status status) {
  Task& t = *tasks_[stage][shard];
  t.status = std::move(status);
  t.failed.store(true, std::memory_order_release);
  ReportPendingEpochs(t, stage, shard, t.status);
  // Unblock neighbours: producers pushing to us wake with Closed, and
  // downstream consumers see our producer slot end.
  for (auto& ch : t.inputs) ch->Close();
  CloseDownstream(stage, shard);
}

void ShardedPipeline::ReportPendingEpochs(Task& t, size_t stage, size_t shard,
                                          const Status& error) {
  if (!barrier_handler_) return;
  const uint64_t last = last_injected_epoch_.load(std::memory_order_acquire);
  for (uint64_t e = t.last_reported_epoch + 1; e <= last; ++e) {
    barrier_handler_(e, 1 + stage * nshards_ + shard,
                     Result<std::string>(error));
  }
  if (last > t.last_reported_epoch) t.last_reported_epoch = last;
}

void ShardedPipeline::CloseDownstream(size_t stage, size_t shard) {
  if (stage + 1 >= tasks_.size()) return;
  for (size_t j = 0; j < nshards_; ++j) {
    tasks_[stage + 1][j]->inputs[shard]->Close();
  }
}

// --- fault tolerance -------------------------------------------------------

Status ShardedPipeline::QuiesceForSnapshot() {
  CQ_RETURN_NOT_OK(Flush());
  // One forward pass is sufficient: a task drains its exchange into the
  // next stage's channels *before* acknowledging each input batch, so once
  // stage s's channels are idle, all of stage s's output already sits in
  // stage s+1's channels.
  for (size_t s = 0; s < tasks_.size(); ++s) {
    for (size_t i = 0; i < nshards_; ++i) {
      for (auto& ch : tasks_[s][i]->inputs) ch->WaitUntilIdle();
      CQ_RETURN_NOT_OK(TaskStatus(s, i));
    }
  }
  return Status::OK();
}

std::string ShardedPipeline::EncodeMetaSlot() const {
  std::string out;
  EncodeU32(kMetaVersion, &out);
  EncodeU32(static_cast<uint32_t>(nshards_), &out);
  EncodeU32(static_cast<uint32_t>(stages_.size()), &out);
  for (const ChainStage& st : stages_) {
    EncodeU32(static_cast<uint32_t>(st.begin), &out);
    EncodeU32(static_cast<uint32_t>(st.end), &out);
    EncodeU32(static_cast<uint32_t>(st.partition_key.size()), &out);
    for (size_t c : st.partition_key) EncodeU32(static_cast<uint32_t>(c), &out);
  }
  return out;
}

Result<std::string> ShardedPipeline::SnapshotTaskSlot(size_t stage,
                                                      size_t shard) {
  CQ_ASSIGN_OR_RETURN(std::vector<std::string> node_slots,
                      tasks_[stage][shard]->executor->SnapshotSlots());
  std::string blob;
  ft::EncodeBlobList(node_slots, &blob);
  return blob;
}

Result<std::vector<std::string>> ShardedPipeline::SnapshotSlots() {
  if (!started_) return Status::InvalidArgument("pipeline not started");
  std::vector<std::string> slots;
  slots.reserve(1 + stages_.size() * nshards_);
  slots.push_back(EncodeMetaSlot());
  for (size_t s = 0; s < stages_.size(); ++s) {
    for (size_t i = 0; i < nshards_; ++i) {
      CQ_ASSIGN_OR_RETURN(std::string blob, SnapshotTaskSlot(s, i));
      slots.push_back(std::move(blob));
    }
  }
  return slots;
}

Status ShardedPipeline::RestoreSlots(const std::vector<std::string>& slots) {
  if (!started_) return Status::InvalidArgument("pipeline not started");
  if (slots.empty()) return Status::InvalidArgument("empty sharded image");

  // Decode and check the meta slot: the stage plan must match exactly; the
  // shard count may differ (N->M re-shard below).
  std::string_view meta = slots[0];
  CQ_ASSIGN_OR_RETURN(uint32_t version, DecodeU32(&meta));
  if (version != kMetaVersion) {
    return Status::InvalidArgument("unknown sharded image version");
  }
  CQ_ASSIGN_OR_RETURN(uint32_t old_shards, DecodeU32(&meta));
  CQ_ASSIGN_OR_RETURN(uint32_t old_stage_count, DecodeU32(&meta));
  if (old_shards == 0 || old_stage_count != stages_.size()) {
    return Status::InvalidArgument("sharded image stage plan mismatch");
  }
  for (const ChainStage& st : stages_) {
    CQ_ASSIGN_OR_RETURN(uint32_t begin, DecodeU32(&meta));
    CQ_ASSIGN_OR_RETURN(uint32_t end, DecodeU32(&meta));
    CQ_ASSIGN_OR_RETURN(uint32_t key_len, DecodeU32(&meta));
    std::vector<size_t> key(key_len);
    for (uint32_t k = 0; k < key_len; ++k) {
      CQ_ASSIGN_OR_RETURN(uint32_t c, DecodeU32(&meta));
      key[k] = c;
    }
    if (begin != st.begin || end != st.end || key != st.partition_key) {
      return Status::InvalidArgument("sharded image stage plan mismatch");
    }
  }
  if (slots.size() != 1 + old_stage_count * old_shards) {
    return Status::InvalidArgument("sharded image slot count mismatch");
  }

  if (old_shards == nshards_) {
    for (size_t s = 0; s < stages_.size(); ++s) {
      for (size_t i = 0; i < nshards_; ++i) {
        std::string_view blob = slots[1 + s * nshards_ + i];
        CQ_ASSIGN_OR_RETURN(std::vector<std::string> node_slots,
                            ft::DecodeBlobList(&blob));
        CQ_RETURN_NOT_OK(tasks_[s][i]->executor->RestoreSlots(node_slots));
      }
    }
    return Status::OK();
  }

  // N->M re-shard: per stage, per node position, pool every old shard's
  // state blob and re-hash the KeyedStateBackend cells to the new shards.
  for (size_t s = 0; s < stages_.size(); ++s) {
    std::vector<std::vector<std::string>> old_nodes(old_shards);
    size_t node_count = 0;
    for (size_t oi = 0; oi < old_shards; ++oi) {
      std::string_view blob = slots[1 + s * old_shards + oi];
      CQ_ASSIGN_OR_RETURN(old_nodes[oi], ft::DecodeBlobList(&blob));
      if (oi == 0) {
        node_count = old_nodes[oi].size();
      } else if (old_nodes[oi].size() != node_count) {
        return Status::InvalidArgument(
            "sharded image node counts differ across shards");
      }
    }
    std::vector<std::vector<std::string>> new_nodes(
        nshards_, std::vector<std::string>(node_count));
    for (size_t n = 0; n < node_count; ++n) {
      std::vector<std::string> pooled;
      bool any = false;
      pooled.reserve(old_shards);
      for (size_t oi = 0; oi < old_shards; ++oi) {
        if (!old_nodes[oi][n].empty()) any = true;
        pooled.push_back(old_nodes[oi][n]);
      }
      if (!any) continue;  // stateless node everywhere
      const Operator* op = tasks_[s][0]->executor->graph()->node(n);
      if (op == nullptr || !op->KeyedStateReshardable()) {
        return Status::InvalidArgument(
            "cannot re-shard: node " + std::to_string(n) + (op ? " ('" +
            op->name() + "')" : "") + " state is not keyed-reshardable");
      }
      CQ_ASSIGN_OR_RETURN(std::vector<std::string> resharded,
                          ReshardKeyedStateBlobs(pooled, nshards_));
      for (size_t i = 0; i < nshards_; ++i) {
        new_nodes[i][n] = std::move(resharded[i]);
      }
    }
    for (size_t i = 0; i < nshards_; ++i) {
      CQ_RETURN_NOT_OK(tasks_[s][i]->executor->RestoreSlots(new_nodes[i]));
    }
  }
  return Status::OK();
}

Result<std::string> ShardedPipeline::Checkpoint(
    const std::map<std::string, int64_t>& source_offsets) {
  CQ_RETURN_NOT_OK(QuiesceForSnapshot());
  CQ_ASSIGN_OR_RETURN(std::vector<std::string> slots, SnapshotSlots());
  return ft::EncodeCheckpointImage(slots, source_offsets);
}

Result<std::map<std::string, int64_t>> ShardedPipeline::Restore(
    std::string_view image) {
  CQ_ASSIGN_OR_RETURN(ft::CheckpointImage decoded,
                      ft::DecodeCheckpointImage(image));
  CQ_RETURN_NOT_OK(RestoreSlots(decoded.slots));
  return decoded.source_offsets;
}

void ShardedPipeline::SetBarrierHandler(
    ft::BarrierInjectable::BarrierHandler handler) {
  barrier_handler_ = std::move(handler);
}

Status ShardedPipeline::InjectBarrier(uint64_t epoch) {
  if (!started_) return Status::InvalidArgument("pipeline not started");
  // The meta slot is epoch state too: recovery needs the shard count the
  // image was taken at before it can decide whether to re-shard.
  if (barrier_handler_) barrier_handler_(epoch, 0, EncodeMetaSlot());
  last_injected_epoch_.store(epoch, std::memory_order_release);
  for (size_t i = 0; i < nshards_; ++i) {
    pending_[i].Add(StreamElement::Barrier(epoch));
    CQ_RETURN_NOT_OK(FlushShard(i));
  }
  return Status::OK();
}

size_t ShardedPipeline::BarrierFanIn() const {
  return 1 + stages_.size() * nshards_;
}

// --- observability ---------------------------------------------------------

void ShardedPipeline::AttachMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  shard_records_.clear();
  exchange_batches_.clear();
  exchange_bytes_.clear();
  skew_gauge_ = nullptr;
  for (size_t s = 0; s < tasks_.size(); ++s) {
    for (size_t i = 0; i < nshards_; ++i) {
      Task& t = *tasks_[s][i];
      t.executor->AttachMetrics(registry);
      for (size_t p = 0; p < t.inputs.size(); ++p) {
        t.inputs[p]->AttachMetrics(
            registry, {{"channel", "shard-s" + std::to_string(s) + "-" +
                                       std::to_string(i) + "-in" +
                                       std::to_string(p)}});
      }
    }
  }
  if (registry == nullptr) return;
  for (size_t i = 0; i < nshards_; ++i) {
    const LabelSet labels = {{"shard", std::to_string(i)}};
    shard_records_.push_back(
        registry->GetCounter("cq_shard_records_total", labels));
    exchange_batches_.push_back(
        registry->GetCounter("cq_shard_exchange_batches_total", labels));
    exchange_bytes_.push_back(
        registry->GetCounter("cq_shard_exchange_bytes_total", labels));
  }
  skew_gauge_ = registry->GetDoubleGauge("cq_shard_skew_ratio");
}

void ShardedPipeline::AttachTracer(TraceRecorder* tracer) {
  for (size_t s = 0; s < tasks_.size(); ++s) {
    for (size_t i = 0; i < nshards_; ++i) {
      Task& t = *tasks_[s][i];
      t.executor->AttachTracer(tracer);
      for (size_t p = 0; p < t.inputs.size(); ++p) {
        t.inputs[p]->AttachTracer(
            tracer, "shard-s" + std::to_string(s) + "-" + std::to_string(i));
      }
    }
  }
}

void ShardedPipeline::UpdateSkewGauge() {
  if (skew_gauge_ == nullptr) return;
  uint64_t total = 0;
  uint64_t peak = 0;
  for (uint64_t r : routed_) {
    total += r;
    peak = std::max(peak, r);
  }
  if (total == 0) return;
  const double mean = static_cast<double>(total) / static_cast<double>(nshards_);
  skew_gauge_->Set(static_cast<double>(peak) / mean);
}

}  // namespace cq::shard
