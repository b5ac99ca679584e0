#ifndef CQ_NET_QUOTAS_H_
#define CQ_NET_QUOTAS_H_

/// \file quotas.h
/// \brief TenantQuotas: per-tenant admission control and egress pacing.
///
/// The service layer's caps (ServiceConfig::max_queries / max_state_bytes)
/// protect the *process*; a shared front door also has to protect tenants
/// from each other. Each connection names a tenant and every tenant gets
/// three independent budgets:
///
///  - query count     checked at REGISTER admission, released on DROP;
///  - state bytes     checked at REGISTER admission against the tenant's
///                    currently resident operator state (the caller supplies
///                    the measurement — QueryService::QueryStateBytes);
///  - egress bandwidth a token bucket (bytes/sec rate + burst) consulted by
///                    the subscriber mux before any frame is copied into a
///                    connection's write buffer. Running dry *throttles*
///                    the tenant — its result batches wait in the bounded
///                    subscription channels (and drop there under sustained
///                    overrun, counted per subscription) — it never evicts
///                    the connection. Eviction is reserved for subscribers
///                    that stop reading the socket.
///
/// Zero means unlimited for every field, so an unconfigured tenant is
/// admitted freely. Time is injected (nanosecond now) so token-bucket tests
/// run on a manual clock.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace cq::net {

struct TenantQuota {
  /// Concurrent registered (non-dropped) queries; 0 = unlimited.
  size_t max_queries = 0;
  /// Resident operator state bytes attributed to the tenant; 0 = unlimited.
  size_t max_state_bytes = 0;
  /// Egress token-bucket refill rate in bytes/sec; 0 = unlimited.
  uint64_t egress_bytes_per_sec = 0;
  /// Egress bucket capacity; 0 defaults to one second of rate.
  uint64_t egress_burst_bytes = 0;
};

class TenantQuotas {
 public:
  /// \brief With a registry, exports cq_net_egress_bytes_total{tenant=},
  /// cq_net_egress_throttled_total{tenant=} and
  /// cq_net_quota_rejected_total{tenant=}. Must outlive this object.
  explicit TenantQuotas(MetricsRegistry* metrics = nullptr)
      : metrics_(metrics) {}

  /// \brief Installs (or replaces) `tenant`'s quota.
  void SetQuota(const std::string& tenant, TenantQuota quota);

  /// \brief Quota applied to tenants without an explicit SetQuota.
  void SetDefaultQuota(TenantQuota quota);

  /// \brief REGISTER admission: OutOfRange when the tenant is at its query
  /// cap or `resident_state_bytes` (its currently attributed operator
  /// state) already meets its state cap. Success reserves one query slot.
  Status AdmitQuery(const std::string& tenant, size_t resident_state_bytes);

  /// \brief Releases one query slot (DROP, or rollback after a failed
  /// registration).
  void ReleaseQuery(const std::string& tenant);

  /// \brief Egress gate for a run of frames of `frame_bytes` bytes each,
  /// in order: refills the bucket to `now_ns` (a monotonic clock reading),
  /// then consumes each frame's bytes while tokens last and returns how
  /// many frames were admitted. The first frame refused counts one
  /// throttle and ends the run — the caller leaves it and the rest queued
  /// and retries after refill. Unlimited tenants admit every frame. A
  /// frame larger than the burst is admitted once the bucket is full (the
  /// bucket goes negative and repays over future refills) so an oversized
  /// frame is paced, never wedged. One call takes the lock once; its
  /// decisions equal those of one call per frame at the same `now_ns`.
  size_t AdmitEgress(const std::string& tenant,
                     const std::vector<uint64_t>& frame_bytes, int64_t now_ns);

  /// \brief Records `bytes` of egress without consulting (or charging) the
  /// token bucket — the graceful-drain path bypasses pacing but keeps the
  /// per-tenant accounting truthful.
  void NoteEgress(const std::string& tenant, uint64_t bytes);

  /// \brief Registered (non-released) queries for `tenant`.
  size_t ActiveQueries(const std::string& tenant) const;

  /// \brief Total egress bytes granted to `tenant`.
  uint64_t EgressGranted(const std::string& tenant) const;

  /// \brief Times AdmitEgress refused `tenant` a frame for lack of tokens.
  uint64_t ThrottledCount(const std::string& tenant) const;

  /// \brief `tenant`'s egress bucket level in bytes as of its last
  /// consult (negative while repaying an oversized frame).
  double EgressTokens(const std::string& tenant) const;

 private:
  struct TenantState {
    TenantQuota quota;
    bool has_quota = false;  // explicit SetQuota vs default
    size_t active_queries = 0;
    double tokens = 0;        // current bucket level, bytes
    bool bucket_started = false;  // first consult starts the bucket full
    int64_t refill_ns = 0;    // last refill instant
    uint64_t egress_granted = 0;
    uint64_t throttled = 0;
    Counter* egress_counter = nullptr;
    Counter* throttled_counter = nullptr;
    Counter* rejected_counter = nullptr;
  };

  TenantState* StateLocked(const std::string& tenant);
  const TenantQuota& QuotaOf(const TenantState& ts) const {
    return ts.has_quota ? ts.quota : default_quota_;
  }
  static uint64_t BurstOf(const TenantQuota& q) {
    return q.egress_burst_bytes != 0 ? q.egress_burst_bytes
                                     : q.egress_bytes_per_sec;
  }

  mutable std::mutex mu_;
  MetricsRegistry* metrics_;
  TenantQuota default_quota_;
  std::map<std::string, TenantState> tenants_;
};

}  // namespace cq::net

#endif  // CQ_NET_QUOTAS_H_
