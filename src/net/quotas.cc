#include "net/quotas.h"

#include <algorithm>

namespace cq::net {

TenantQuotas::TenantState* TenantQuotas::StateLocked(
    const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant, TenantState{}).first;
    if (metrics_ != nullptr) {
      LabelSet labels{{"tenant", tenant}};
      it->second.egress_counter =
          metrics_->GetCounter("cq_net_egress_bytes_total", labels);
      it->second.throttled_counter =
          metrics_->GetCounter("cq_net_egress_throttled_total", labels);
      it->second.rejected_counter =
          metrics_->GetCounter("cq_net_quota_rejected_total", labels);
    }
  }
  return &it->second;
}

void TenantQuotas::SetQuota(const std::string& tenant, TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState* ts = StateLocked(tenant);
  ts->quota = quota;
  ts->has_quota = true;
  // Restart the bucket full so a freshly configured tenant gets its burst.
  ts->tokens = static_cast<double>(BurstOf(quota));
  ts->bucket_started = false;
}

void TenantQuotas::SetDefaultQuota(TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  default_quota_ = quota;
}

Status TenantQuotas::AdmitQuery(const std::string& tenant,
                                size_t resident_state_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState* ts = StateLocked(tenant);
  const TenantQuota& q = QuotaOf(*ts);
  if (q.max_queries != 0 && ts->active_queries >= q.max_queries) {
    if (ts->rejected_counter) ts->rejected_counter->Increment();
    return Status::OutOfRange("tenant '" + tenant + "' is at its quota of " +
                              std::to_string(q.max_queries) + " queries");
  }
  if (q.max_state_bytes != 0 && resident_state_bytes >= q.max_state_bytes) {
    if (ts->rejected_counter) ts->rejected_counter->Increment();
    return Status::OutOfRange(
        "tenant '" + tenant + "' holds " +
        std::to_string(resident_state_bytes) + " state bytes, at its quota of " +
        std::to_string(q.max_state_bytes));
  }
  ts->active_queries++;
  return Status::OK();
}

void TenantQuotas::ReleaseQuery(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState* ts = StateLocked(tenant);
  if (ts->active_queries > 0) ts->active_queries--;
}

size_t TenantQuotas::AdmitEgress(const std::string& tenant,
                                 const std::vector<uint64_t>& frame_bytes,
                                 int64_t now_ns) {
  if (frame_bytes.empty()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  TenantState* ts = StateLocked(tenant);
  const TenantQuota& q = QuotaOf(*ts);
  uint64_t granted = 0;
  size_t admitted = 0;
  if (q.egress_bytes_per_sec == 0) {
    for (uint64_t bytes : frame_bytes) granted += bytes;
    admitted = frame_bytes.size();
  } else {
    const double burst = static_cast<double>(BurstOf(q));
    if (!ts->bucket_started) {
      // First consult: start full.
      ts->tokens = burst;
      ts->bucket_started = true;
    } else if (now_ns > ts->refill_ns) {
      const double elapsed_s =
          static_cast<double>(now_ns - ts->refill_ns) / 1e9;
      ts->tokens = std::min(
          burst, ts->tokens + elapsed_s *
                                  static_cast<double>(q.egress_bytes_per_sec));
    }
    ts->refill_ns = now_ns;
    for (uint64_t bytes : frame_bytes) {
      // A frame larger than the burst could never pass a plain
      // `tokens >= bytes` gate — it would wedge its subscription's staged
      // batch forever. Clamp the requirement to the bucket capacity (a full
      // bucket admits any one frame) but charge the real size: tokens go
      // negative and the tenant pays the debt across future refills,
      // preserving the long-run rate.
      const double need = std::min(static_cast<double>(bytes), burst);
      if (ts->tokens < need) {
        ts->throttled++;
        if (ts->throttled_counter) ts->throttled_counter->Increment();
        break;
      }
      ts->tokens -= static_cast<double>(bytes);
      granted += bytes;
      ++admitted;
    }
  }
  ts->egress_granted += granted;
  if (ts->egress_counter && granted > 0) ts->egress_counter->Increment(granted);
  return admitted;
}

void TenantQuotas::NoteEgress(const std::string& tenant, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState* ts = StateLocked(tenant);
  ts->egress_granted += bytes;
  if (ts->egress_counter) ts->egress_counter->Increment(bytes);
}

size_t TenantQuotas::ActiveQueries(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.active_queries;
}

uint64_t TenantQuotas::EgressGranted(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.egress_granted;
}

uint64_t TenantQuotas::ThrottledCount(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.throttled;
}

double TenantQuotas::EgressTokens(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.tokens;
}

}  // namespace cq::net
