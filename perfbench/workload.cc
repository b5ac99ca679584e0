#include "workload.h"

namespace cq::perfbench {

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  // Egress-heavy: four plans over one shared source/filter/window prefix,
  // 32 push feeds, about 30 DATA frames per record. Mux render and socket
  // write dominate, so SubscriberMux / WriteBuffer changes show here.
  Workload fanout;
  fanout.name = "fanout_shared";
  fanout.keys = 1000;
  fanout.prefix = "trades [Range 100] WHERE price > 10";
  for (const char* proj : {"sym, price", "sym, qty", "price, qty",
                           "sym, price, qty"}) {
    fanout.queries.push_back(std::string("SELECT ") + proj + " FROM " +
                             fanout.prefix);
  }
  fanout.feeds_per_query = 8;
  fanout.subscriber_conns = 3;
  fanout.rate = 5000;
  fanout.window = 252;
  out.push_back(fanout);

  // State-heavy: four grouped aggregates on four shards, one feed each,
  // about 3 DATA frames per record. PlanDeltaOperator dominates, and every
  // record crosses ShardedQueryService routing.
  Workload agg;
  agg.name = "window_agg_sharded";
  agg.shards = 4;
  agg.keys = 100;
  agg.prefix = "trades [Range 1000] WHERE price > 10";
  for (const char* fn : {"SUM(qty)", "COUNT(*)", "MIN(price)", "MAX(price)"}) {
    agg.queries.push_back(std::string("SELECT sym, ") + fn + " AS v FROM " +
                          agg.prefix + " GROUP BY sym");
  }
  agg.feeds_per_query = 1;
  agg.subscriber_conns = 3;
  agg.rate = 6000;
  agg.window = 252;
  out.push_back(agg);

  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace cq::perfbench
