/// \file server.h
/// \brief evocatd: the long-running JobSpec front-end.
///
/// Serves the protocol documented in docs/server.md over HTTP/1.1 on TCP or
/// a Unix-domain socket:
///
///   POST /v1/jobs              submit a JobSpec, returns 202 + job id
///                              (429 + Retry-After when the queue is full)
///   GET  /v1/jobs              list jobs (newest first)
///   GET  /v1/jobs/{id}         job status
///   GET  /v1/jobs/{id}/result  RunArtifacts JSON (?best_csv=0 to omit CSV)
///   POST /v1/jobs/{id}/cancel  cooperative cancel
///   GET  /healthz              liveness + degradation + job/cache counters
///   GET  /metrics              Prometheus text exposition (version 0.0.4)
///
/// Connections are HTTP/1.1 keep-alive with idle/header/body deadlines and
/// request-line+header byte bounds (431), so slow or hostile clients cannot
/// pin the I/O threads. With `Options::auth_token` set, every route except
/// `/healthz` and `/metrics` requires `Authorization: Bearer <token>`
/// (constant-time compare; 401 otherwise). Requests are validated with the façade's
/// field-naming JSON errors; execution is asynchronous on the work-stealing
/// scheduler via JobManager. `Handle` is a pure request->response function,
/// so every route is testable without sockets; `Start` adds the socket
/// front-end (a small pool of accept+handle I/O threads).

#ifndef EVOCAT_SERVER_SERVER_H_
#define EVOCAT_SERVER_SERVER_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "server/http.h"
#include "server/job_manager.h"

namespace evocat {
namespace server {

class Server {
 public:
  struct Options {
    /// TCP bind address; loopback by default (put a reverse proxy or a
    /// service mesh in front for anything else).
    std::string host = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (see `port()` after Start).
    int port = 8080;
    /// When non-empty, serve on this Unix-domain socket instead of TCP.
    std::string unix_socket;
    /// Byte bounds (413/431), the keep-alive idle window and the
    /// slow-loris deadlines (408) for every request read.
    HttpReadLimits read_limits;
    /// Requests served per connection before an orderly close (bounds how
    /// long one client can monopolize an I/O thread).
    int max_requests_per_connection = 1000;
    /// `Retry-After` seconds advertised on 429 responses.
    int retry_after_seconds = 2;
    /// When non-empty, require `Authorization: Bearer <token>` on every
    /// route except /healthz and /metrics (compared in constant time).
    std::string auth_token;
    /// Accept+handle I/O threads. Endpoint handlers never block on job
    /// execution, so a few threads absorb a deep submit/poll stream.
    int io_threads = 4;
  };

  /// \param jobs job table; \param session only consulted for /healthz cache
  /// stats (the same session the manager executes on). Both must outlive
  /// the server.
  Server(JobManager* jobs, api::Session* session, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Binds, listens and spawns the I/O threads.
  Status Start();

  /// \brief Graceful stop: stop accepting, drain in-flight handlers.
  /// Queued/running jobs are JobManager's concern (its destructor cancels
  /// and drains them).
  void Stop();

  /// \brief Routes one request (no sockets involved).
  HttpResponse Handle(const HttpRequest& request);

  /// \brief Bound TCP port (after Start); -1 when serving a Unix socket.
  int port() const { return port_; }

 private:
  void IoLoop();
  /// Serves requests on one accepted connection until close/timeout/limit.
  void ServeConnection(int conn);
  bool Authorized(const HttpRequest& request) const;
  HttpResponse HandleSubmit(const HttpRequest& request);
  HttpResponse HandleList();
  HttpResponse HandleStatus(const std::string& id);
  HttpResponse HandleResult(const HttpRequest& request, const std::string& id);
  HttpResponse HandleCancel(const std::string& id);
  HttpResponse HandleHealth();

  JobManager* jobs_;
  api::Session* session_;
  Options options_;
  Timer uptime_;

  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> io_threads_;
};

}  // namespace server
}  // namespace evocat

#endif  // EVOCAT_SERVER_SERVER_H_
