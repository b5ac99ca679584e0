#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "queue/broker.h"
#include "runtime/batch.h"
#include "runtime/channel.h"
#include "runtime/driver.h"

namespace cq {
namespace {

Tuple T(int64_t v) { return Tuple({Value(v)}); }

StreamBatch RecordBatch(int64_t v, Timestamp ts) {
  StreamBatch b;
  b.AddRecord(T(v), ts);
  return b;
}

TEST(StreamBatchTest, Accessors) {
  StreamBatch b;
  EXPECT_TRUE(b.empty());
  b.AddRecord(T(1), 10);
  b.AddWatermark(5);
  b.AddRecord(T(2), 30);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.num_records(), 2u);
  EXPECT_EQ(b.MaxTimestamp(), 30);
  EXPECT_TRUE(b[1].is_watermark());
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.MaxTimestamp(), kMinTimestamp);
}

TEST(StreamBatchTest, CopySharesRows) {
  StreamBatch a;
  a.AddRecord(T(1), 10);
  a.AddWatermark(10);
  StreamBatch b = a;
  EXPECT_EQ(a.elements().data(), b.elements().data());
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.num_records(), 1u);
  EXPECT_EQ(b.MaxTimestamp(), 10);
}

TEST(StreamBatchTest, AddOnCopyLeavesOriginalUntouched) {
  StreamBatch a;
  a.AddRecord(T(1), 10);
  StreamBatch b = a;
  b.AddRecord(T(2), 20);
  EXPECT_NE(a.elements().data(), b.elements().data());
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.num_records(), 1u);
  EXPECT_EQ(a.MaxTimestamp(), 10);
  EXPECT_EQ(a[0].tuple.at(0).int64_value(), 1);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.num_records(), 2u);
  EXPECT_EQ(b.MaxTimestamp(), 20);
  EXPECT_EQ(b[1].tuple.at(0).int64_value(), 2);
}

TEST(StreamBatchTest, ClearOnSharedCopyLeavesSiblingsIntact) {
  StreamBatch a(std::vector<StreamElement>{
      StreamElement::Record(T(1), 10), StreamElement::Record(T(2), 20),
      StreamElement::Watermark(20)});
  StreamBatch b = a;
  StreamBatch c = a;
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.num_records(), 0u);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(a.elements().data(), c.elements().data());
  EXPECT_EQ(c.num_records(), 2u);
  // The cleared handle builds a fresh payload of its own.
  b.AddRecord(T(3), 30);
  EXPECT_NE(b.elements().data(), a.elements().data());
  EXPECT_EQ(a.size(), 3u);
}

TEST(StreamBatchTest, CopiesReadConcurrentlyWhileSubscriptionCancels) {
  // One payload fanned out through two channels: two readers drain copies
  // on their own threads while a third cancels one reader's channel and
  // drops the producer's handle. Every copy a reader sees must be whole;
  // a closed channel still drains what it queued.
  StreamBatch shared;
  for (int64_t i = 0; i < 64; ++i) shared.AddRecord(T(i), i);
  shared.AddWatermark(63);
  shared.num_records();
  Channel a(0), b(0);
  constexpr int kRounds = 200;
  for (int r = 0; r < kRounds; ++r) {
    StreamBatch ca = shared, cb = shared;
    ASSERT_TRUE(a.Push(std::move(ca)).ok());
    ASSERT_TRUE(b.Push(std::move(cb)).ok());
  }
  b.Close();
  std::atomic<int> bad{0};
  auto reader = [&bad](Channel* ch, int* seen) {
    StreamBatch got;
    while (ch->Pop(&got)) {
      int64_t sum = 0;
      for (const StreamElement& e : got) {
        if (e.is_record()) sum += e.tuple.at(0).int64_value();
      }
      if (got.num_records() != 64 || sum != 64 * 63 / 2) bad++;
      ch->Acknowledge();
      ++*seen;
    }
  };
  int seen_a = 0, seen_b = 0;
  std::thread ta(reader, &a, &seen_a);
  std::thread tb(reader, &b, &seen_b);
  std::thread canceller([&a, &shared] {
    a.Close();
    shared.clear();
  });
  canceller.join();
  ta.join();
  tb.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(seen_a, kRounds);
  EXPECT_EQ(seen_b, kRounds);
}

TEST(ChannelTest, FifoBatchDelivery) {
  Channel ch(10);
  StreamBatch b1;
  b1.AddRecord(T(1), 1);
  b1.AddWatermark(5);
  ASSERT_TRUE(ch.Push(std::move(b1)).ok());
  StreamBatch got;
  ASSERT_TRUE(ch.Pop(&got));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].is_record());
  EXPECT_TRUE(got[1].is_watermark());
  ch.Acknowledge();
  ch.Close();
  EXPECT_FALSE(ch.Pop(&got));
  StreamBatch b2;
  b2.AddWatermark(6);
  EXPECT_TRUE(ch.Push(std::move(b2)).IsClosed());
}

TEST(ChannelTest, CreditsAccounting) {
  Channel ch(3);
  EXPECT_EQ(ch.credits_available(), 3u);
  ASSERT_TRUE(ch.Push(RecordBatch(1, 1)).ok());
  ASSERT_TRUE(ch.Push(RecordBatch(2, 2)).ok());
  EXPECT_EQ(ch.credits_available(), 1u);
  EXPECT_EQ(ch.depth(), 2u);
  StreamBatch got;
  ASSERT_TRUE(ch.Pop(&got));
  ch.Acknowledge();
  EXPECT_EQ(ch.credits_available(), 2u);
}

TEST(ChannelTest, TryPushRefusesWithoutCredit) {
  Channel ch(1);
  StreamBatch b = RecordBatch(1, 1);
  Status st;
  ASSERT_TRUE(ch.TryPush(&b, &st));
  ASSERT_TRUE(st.ok());
  b = RecordBatch(2, 2);
  EXPECT_FALSE(ch.TryPush(&b, &st));
  EXPECT_TRUE(st.ok());           // refused, not closed
  EXPECT_EQ(b.num_records(), 1u); // batch intact for retry
  EXPECT_EQ(ch.blocked_pushes(), 1u);
  ch.Close();
  EXPECT_FALSE(ch.TryPush(&b, &st));
  EXPECT_TRUE(st.IsClosed());
}

TEST(ChannelTest, UnboundedNeverBlocks) {
  Channel ch(0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ch.Push(RecordBatch(i, i)).ok());
  }
  EXPECT_EQ(ch.depth(), 1000u);
  EXPECT_EQ(ch.credits_available(), SIZE_MAX);
  EXPECT_EQ(ch.blocked_pushes(), 0u);
}

TEST(ChannelTest, WaitUntilIdleCoversInFlightBatches) {
  Channel ch(4);
  ASSERT_TRUE(ch.Push(RecordBatch(1, 1)).ok());
  std::thread consumer([&ch] {
    StreamBatch got;
    ASSERT_TRUE(ch.Pop(&got));
    // Simulate processing before acknowledging.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Acknowledge();
  });
  ch.WaitUntilIdle();
  EXPECT_EQ(ch.depth(), 0u);
  consumer.join();
}

TEST(ChannelTest, CloseWakesWaitUntilIdle) {
  // A closed channel counts as idle even with queued batches — a failed
  // consumer must not deadlock checkpoint alignment.
  Channel ch(4);
  ASSERT_TRUE(ch.Push(RecordBatch(1, 1)).ok());
  ch.Close();
  ch.WaitUntilIdle();  // must return despite the undrained batch
  EXPECT_EQ(ch.depth(), 1u);
}

TEST(ChannelTest, ExportsMetrics) {
  MetricsRegistry registry;
  Channel ch(2);
  ch.AttachMetrics(&registry, {{"channel", "w0"}});
  ASSERT_TRUE(ch.Push(RecordBatch(1, 1)).ok());
  StreamBatch two;
  two.AddRecord(T(2), 2);
  two.AddRecord(T(3), 3);
  ASSERT_TRUE(ch.Push(std::move(two)).ok());
  LabelSet labels{{"channel", "w0"}};
  EXPECT_EQ(registry.GetCounter("cq_channel_pushes_total", labels)->value(),
            2u);
  EXPECT_EQ(registry.GetCounter("cq_channel_records_total", labels)->value(),
            3u);
  EXPECT_EQ(registry.GetGauge("cq_channel_depth", labels)->value(), 2);
  EXPECT_EQ(registry.GetGauge("cq_channel_credits", labels)->value(), 0);
  StreamBatch got;
  ASSERT_TRUE(ch.Pop(&got));
  ch.Acknowledge();
  EXPECT_EQ(registry.GetGauge("cq_channel_depth", labels)->value(), 1);
  EXPECT_EQ(registry.GetGauge("cq_channel_credits", labels)->value(), 1);
}

struct DriverFixture {
  Broker broker;
  explicit DriverFixture(size_t partitions) {
    EXPECT_TRUE(broker.CreateTopic("t", partitions).ok());
  }
};

TEST(BrokerSourceDriverTest, PollBatchDeliversRecordsAndWatermark) {
  DriverFixture f(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.broker.Produce("t", "", T(i), 100 + i).ok());
  }
  BrokerSourceDriver driver(&f.broker, "t", "g",
                            {/*max_poll_records=*/256,
                             /*max_out_of_orderness=*/3});
  StreamBatch batch = *driver.PollBatch();
  ASSERT_EQ(batch.size(), 6u);  // 5 records + 1 watermark
  EXPECT_EQ(batch.num_records(), 5u);
  EXPECT_TRUE(batch[5].is_watermark());
  EXPECT_EQ(batch[5].timestamp, 104 - 3);
  EXPECT_EQ(driver.CurrentWatermark(), 101);
  EXPECT_EQ(*driver.FinalWatermark(), 105);  // one past the max ts 104
  // Caught up: next poll is empty, and the unchanged watermark is not
  // re-emitted.
  EXPECT_TRUE((*driver.PollBatch()).empty());
  // Offsets were committed after the poll.
  EXPECT_EQ((*driver.Offsets()).at("t/0"), 5);
}

TEST(BrokerSourceDriverTest, WatermarkIsMinAcrossPartitions) {
  DriverFixture f(2);
  Topic* t = *f.broker.GetTopic("t");
  t->partition(0).Append("a", T(1), 1000);
  t->partition(1).Append("b", T(2), 10);
  BrokerSourceDriver driver(&f.broker, "t", "g");
  StreamBatch batch = *driver.PollBatch();
  EXPECT_EQ(batch.num_records(), 2u);
  EXPECT_EQ(driver.CurrentWatermark(), 10);
  ASSERT_TRUE(batch[batch.size() - 1].is_watermark());
  EXPECT_EQ(batch[batch.size() - 1].timestamp, 10);
}

TEST(BrokerSourceDriverTest, SeekToReplays) {
  DriverFixture f(1);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(f.broker.Produce("t", "", T(i), i).ok());
  }
  BrokerSourceDriver driver(&f.broker, "t", "g");
  EXPECT_EQ((*driver.PollBatch()).num_records(), 6u);
  ASSERT_TRUE(driver.SeekTo({{"t/0", 4}}).ok());
  StreamBatch replay = *driver.PollBatch();
  EXPECT_EQ(replay.num_records(), 2u);
  EXPECT_EQ(replay[0].tuple, T(4));
}

TEST(BrokerSourceDriverTest, EmptyTopicFinalWatermark) {
  DriverFixture f(1);
  BrokerSourceDriver driver(&f.broker, "t", "g");
  EXPECT_EQ(*driver.FinalWatermark(), kMinTimestamp);
  EXPECT_TRUE((*driver.PollBatch()).empty());
}

}  // namespace
}  // namespace cq
