#ifndef CQ_PERFBENCH_SERVER_CHILD_H_
#define CQ_PERFBENCH_SERVER_CHILD_H_

/// \file server_child.h
/// \brief The program under test, run in a forked child process.

#include <sched.h>
#include <sys/types.h>

#include <cstdint>

#include "workload.h"

namespace cq::perfbench {

struct ServerHandle {
  pid_t pid = -1;
  uint16_t port = 0;
  /// MonotonicNanos() just before net::Server::Init in the child; the
  /// monotonic clock is shared across processes.
  int64_t init_ns = 0;
};

struct ServerOptions {
  /// Every Nth push roots a trace (ServiceConfig::trace_sample_every);
  /// 0 attaches no TraceRecorder.
  size_t trace_every = 0;
  /// Wraps the backend and its feeds in timing decorators whose totals,
  /// with a summary of the recorded spans, are served as JSON on /bench.
  bool decorate = false;
};

/// \brief Forks a child that serves `workload`'s backend on an ephemeral
/// loopback port with the same wiring as `query_server --serve`: a
/// LocalBackend or ShardedBackend under net::Server, the metrics registry
/// attached, /metrics and /queries on the same port.
///
/// The child re-executes this binary with `--serve-child`, whose main
/// calls RunServerChild, and runs on `cpus` when that is non-null. Returns
/// a handle with pid -1 when the child could not start.
ServerHandle StartServer(const Workload& workload, ServerOptions options,
                         const cpu_set_t* cpus);

/// \brief The child's whole life: builds the server, reports
/// {init_ns, port} as two int64 on `report_fd`, serves until SIGTERM
/// drains it. Returns the process exit code.
int RunServerChild(const Workload& workload, ServerOptions options,
                   int report_fd);

/// \brief SIGTERM (graceful drain), then waits for the child to exit.
/// Returns false if it had to be killed.
bool StopServer(ServerHandle* server);

}  // namespace cq::perfbench

#endif  // CQ_PERFBENCH_SERVER_CHILD_H_
