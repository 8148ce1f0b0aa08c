#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "api/artifacts_json.h"
#include "api/jobspec.h"
#include "common/logging.h"
#include "common/timer.h"
#include "common/version.h"
#include "obs/metrics.h"
#include "server/wal.h"

namespace evocat {
namespace server {

namespace {

/// Route classes for the request metrics: job ids collapse into `{id}` so
/// the label set stays bounded no matter how many jobs a daemon serves.
enum class Route {
  kHealthz = 0,
  kMetrics,
  kJobs,
  kJobById,
  kJobResult,
  kJobCancel,
  kOther,
  kCount,
};

Route ClassifyRoute(const std::string& path) {
  if (path == "/healthz") return Route::kHealthz;
  if (path == "/metrics") return Route::kMetrics;
  if (path == "/v1/jobs") return Route::kJobs;
  if (path.rfind("/v1/jobs/", 0) == 0) {
    std::string rest = path.substr(std::strlen("/v1/jobs/"));
    size_t slash = rest.find('/');
    if (slash == std::string::npos) return Route::kJobById;
    std::string action = rest.substr(slash + 1);
    if (action == "result") return Route::kJobResult;
    if (action == "cancel") return Route::kJobCancel;
  }
  return Route::kOther;
}

const char* RouteLabel(Route route) {
  switch (route) {
    case Route::kHealthz: return "/healthz";
    case Route::kMetrics: return "/metrics";
    case Route::kJobs: return "/v1/jobs";
    case Route::kJobById: return "/v1/jobs/{id}";
    case Route::kJobResult: return "/v1/jobs/{id}/result";
    case Route::kJobCancel: return "/v1/jobs/{id}/cancel";
    default: return "other";
  }
}

obs::Counter* RequestCounter(Route route) {
  static obs::Counter* counters[static_cast<int>(Route::kCount)] = {};
  static const bool init = [] {
    for (int i = 0; i < static_cast<int>(Route::kCount); ++i) {
      counters[i] = obs::MetricsRegistry::Global().GetCounter(
          "evocat_http_requests_total", "HTTP requests served, by route class.",
          {{"route", RouteLabel(static_cast<Route>(i))}});
    }
    return true;
  }();
  (void)init;
  return counters[static_cast<int>(route)];
}

obs::Histogram* RequestSecondsHistogram(Route route) {
  static obs::Histogram* histograms[static_cast<int>(Route::kCount)] = {};
  static const bool init = [] {
    for (int i = 0; i < static_cast<int>(Route::kCount); ++i) {
      histograms[i] = obs::MetricsRegistry::Global().GetHistogram(
          "evocat_http_request_seconds",
          "Request handling latency (routing + handler), by route class.",
          {{"route", RouteLabel(static_cast<Route>(i))}});
    }
    return true;
  }();
  (void)init;
  return histograms[static_cast<int>(route)];
}

obs::Gauge* ConnectionsGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "evocat_server_connections",
      "Accepted connections currently being served (keep-alive included).");
  return gauge;
}

/// HTTP status for a façade error (submit validation, lookups).
int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kCancelled: return 409;
    case StatusCode::kOutOfRange: return 413;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kNotImplemented: return 501;
    case StatusCode::kIOError: return 503;
    default: return 500;
  }
}

api::JsonValue ErrorJson(const Status& status) {
  api::JsonValue error = api::JsonValue::MakeObject();
  error.Set("code", api::JsonValue::MakeString(StatusCodeToString(status.code())));
  error.Set("message", api::JsonValue::MakeString(status.message()));
  api::JsonValue json = api::JsonValue::MakeObject();
  json.Set("error", std::move(error));
  return json;
}

HttpResponse JsonResponse(int status, const api::JsonValue& json) {
  HttpResponse response;
  response.status = status;
  response.body = json.Dump(2) + "\n";
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusFor(status), ErrorJson(status));
}

HttpResponse ErrorResponse(int http_status, const Status& status) {
  return JsonResponse(http_status, ErrorJson(status));
}

api::JsonValue SnapshotJson(const JobManager::JobSnapshot& snapshot) {
  api::JsonValue json = api::JsonValue::MakeObject();
  json.Set("id", api::JsonValue::MakeString(snapshot.id));
  json.Set("name", api::JsonValue::MakeString(snapshot.name));
  json.Set("state",
           api::JsonValue::MakeString(JobStateToString(snapshot.state)));
  json.Set("queued_seconds", api::JsonValue::MakeNumber(snapshot.queued_seconds));
  json.Set("run_seconds", api::JsonValue::MakeNumber(snapshot.run_seconds));
  if (snapshot.recovered) {
    json.Set("recovered", api::JsonValue::MakeBool(true));
  }
  if (!snapshot.error.ok()) {
    api::JsonValue error = api::JsonValue::MakeObject();
    error.Set("code", api::JsonValue::MakeString(
                          StatusCodeToString(snapshot.error.code())));
    error.Set("message", api::JsonValue::MakeString(snapshot.error.message()));
    json.Set("error", std::move(error));
  }
  return json;
}

/// Constant-time equality: the comparison's duration depends only on the
/// lengths, never on where the first mismatching byte sits, so response
/// timing leaks nothing about the expected token.
bool ConstantTimeEquals(const std::string& a, const std::string& b) {
  unsigned char acc = a.size() == b.size() ? 0 : 1;
  size_t longest = std::max(a.size(), b.size());
  for (size_t i = 0; i < longest; ++i) {
    unsigned char ca = i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
    unsigned char cb = i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
    acc |= static_cast<unsigned char>(ca ^ cb);
  }
  return acc == 0;
}

}  // namespace

Server::Server(JobManager* jobs, api::Session* session, Options options)
    : jobs_(jobs), session_(session), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (listen_fd_ >= 0) return Status::Invalid("server already started");
  stop_.store(false, std::memory_order_relaxed);

  if (!options_.unix_socket.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError("socket failed: ", std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket.size() >= sizeof(addr.sun_path)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Invalid("unix socket path too long: '",
                             options_.unix_socket, "'");
    }
    std::strncpy(addr.sun_path, options_.unix_socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_socket.c_str());  // stale socket from a past run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status status = Status::IOError("bind to '", options_.unix_socket,
                                      "' failed: ", std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    port_ = -1;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError("socket failed: ", std::strerror(errno));
    }
    int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Invalid("not an IPv4 address: '", options_.host, "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status status = Status::IOError("bind to ", options_.host, ":",
                                      options_.port,
                                      " failed: ", std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }

  if (::listen(listen_fd_, 64) != 0) {
    Status status = Status::IOError("listen failed: ", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  // Non-blocking accept: several I/O threads poll the same fd, and a thread
  // that loses the race for a lone connection must fall back to its poll
  // loop (where it re-checks stop_) instead of blocking in accept forever.
  ::fcntl(listen_fd_, F_SETFL,
          ::fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK);

  int threads = options_.io_threads < 1 ? 1 : options_.io_threads;
  io_threads_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    io_threads_.emplace_back([this] { IoLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  for (auto& thread : io_threads_) thread.join();
  io_threads_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!options_.unix_socket.empty()) {
    ::unlink(options_.unix_socket.c_str());
  }
}

void Server::IoLoop() {
  // Each I/O thread polls the shared listening socket with a timeout so Stop
  // is observed promptly, then accepts and serves one connection at a time
  // (keep-alive: possibly many requests).
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;  // timeout or EINTR
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;  // EAGAIN: a sibling thread won the race
    ServeConnection(conn);
    ::close(conn);
  }
}

void Server::ServeConnection(int conn) {
  ConnectionsGauge()->Increment();
  struct ConnectionDone {
    ~ConnectionDone() { ConnectionsGauge()->Decrement(); }
  } connection_done;

  // A silent peer must not pin this I/O thread on writes either.
  timeval write_deadline{};
  write_deadline.tv_sec = 10;
  ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &write_deadline,
               sizeof(write_deadline));

  int served = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    int error_status = 0;
    Result<HttpRequest> request =
        ReadHttpRequest(conn, options_.read_limits, &error_status);
    if (!request.ok()) {
      // 400/408/413/431/501: tell the client what went wrong, then close.
      // 0 means the peer is gone or idled out — nothing to answer.
      if (error_status != 0) {
        HttpResponse response = ErrorResponse(error_status, request.status());
        response.keep_alive = false;
        (void)WriteHttpResponse(conn, response);
      }
      return;
    }

    ++served;
    bool keep = WantsKeepAlive(request.ValueOrDie()) &&
                served < options_.max_requests_per_connection &&
                !stop_.load(std::memory_order_relaxed);
    const Route route = ClassifyRoute(request.ValueOrDie().Path());
    Timer handle_timer;
    HttpResponse response = Handle(request.ValueOrDie());
    RequestCounter(route)->Increment();
    RequestSecondsHistogram(route)->Observe(handle_timer.ElapsedSeconds());
    response.keep_alive = keep;
    Status written = WriteHttpResponse(conn, response);
    if (!written.ok()) {
      EVOCAT_LOG(DEBUG) << "response write failed: " << written.ToString();
      return;
    }
    if (!keep) return;
  }
}

bool Server::Authorized(const HttpRequest& request) const {
  if (options_.auth_token.empty()) return true;
  const std::string* header = request.FindHeader("Authorization");
  if (header == nullptr) return false;
  constexpr char kScheme[] = "Bearer ";
  if (header->rfind(kScheme, 0) != 0) return false;
  return ConstantTimeEquals(header->substr(sizeof(kScheme) - 1),
                            options_.auth_token);
}

HttpResponse Server::Handle(const HttpRequest& request) {
  const std::string path = request.Path();

  if (path == "/healthz") {
    if (request.method != "GET") {
      return ErrorResponse(405, Status::Invalid("use GET ", path));
    }
    // Exempt from auth: load balancers and probes need it unauthenticated.
    return HandleHealth();
  }

  if (path == "/metrics") {
    if (request.method != "GET") {
      return ErrorResponse(405, Status::Invalid("use GET ", path));
    }
    // Exempt from auth like /healthz: Prometheus scrapers are typically
    // configured without credentials, and the exposition carries no job data.
    HttpResponse response;
    response.status = 200;
    response.content_type = "text/plain; version=0.0.4";
    response.body = obs::MetricsRegistry::Global().ToPrometheusText();
    return response;
  }

  if (!Authorized(request)) {
    HttpResponse response = ErrorResponse(
        401, Status::Invalid("missing or wrong bearer token; send "
                             "'Authorization: Bearer <token>'"));
    response.headers.emplace_back("WWW-Authenticate", "Bearer");
    return response;
  }

  if (path == "/v1/jobs") {
    if (request.method == "POST") return HandleSubmit(request);
    if (request.method == "GET") return HandleList();
    return ErrorResponse(405, Status::Invalid("use GET or POST ", path));
  }

  if (path.rfind("/v1/jobs/", 0) == 0) {
    std::string rest = path.substr(std::strlen("/v1/jobs/"));
    size_t slash = rest.find('/');
    std::string id = rest.substr(0, slash);
    std::string action =
        slash == std::string::npos ? std::string() : rest.substr(slash + 1);
    if (id.empty()) {
      return ErrorResponse(Status::NotFound("missing job id in '", path, "'"));
    }
    if (action.empty()) {
      if (request.method != "GET") {
        return ErrorResponse(405, Status::Invalid("use GET ", path));
      }
      return HandleStatus(id);
    }
    if (action == "result") {
      if (request.method != "GET") {
        return ErrorResponse(405, Status::Invalid("use GET ", path));
      }
      return HandleResult(request, id);
    }
    if (action == "cancel") {
      if (request.method != "POST") {
        return ErrorResponse(405, Status::Invalid("use POST ", path));
      }
      return HandleCancel(id);
    }
    return ErrorResponse(Status::NotFound("unknown job action '", action,
                                          "'; expected result|cancel"));
  }

  return ErrorResponse(Status::NotFound(
      "no route for '", path,
      "'; see docs/server.md (endpoints: /healthz, /v1/jobs)"));
}

HttpResponse Server::HandleSubmit(const HttpRequest& request) {
  // Full façade validation up front: JSON syntax errors carry line/column,
  // spec errors name the offending field. Nothing invalid reaches the queue.
  Result<api::JobSpec> spec = api::JobSpec::FromJsonText(request.body);
  if (!spec.ok()) return ErrorResponse(spec.status());

  Result<std::string> submitted = jobs_->Submit(std::move(spec).ValueOrDie());
  if (!submitted.ok()) {
    HttpResponse response = ErrorResponse(submitted.status());
    if (response.status == 429) {
      // Backpressure contract: a full queue is transient — tell clients
      // when to come back instead of letting them hammer the endpoint.
      response.headers.emplace_back(
          "Retry-After", std::to_string(options_.retry_after_seconds));
    }
    return response;
  }
  const std::string& id = submitted.ValueOrDie();
  Result<JobManager::JobSnapshot> snapshot = jobs_->GetStatus(id);
  api::JsonValue json = snapshot.ok()
                            ? SnapshotJson(snapshot.ValueOrDie())
                            : api::JsonValue::MakeObject();
  if (!snapshot.ok()) json.Set("id", api::JsonValue::MakeString(id));
  json.Set("poll", api::JsonValue::MakeString("/v1/jobs/" + id));
  json.Set("result", api::JsonValue::MakeString("/v1/jobs/" + id + "/result"));
  return JsonResponse(202, json);
}

HttpResponse Server::HandleList() {
  api::JsonValue array = api::JsonValue::MakeArray();
  for (const JobManager::JobSnapshot& snapshot : jobs_->List()) {
    array.Append(SnapshotJson(snapshot));
  }
  api::JsonValue json = api::JsonValue::MakeObject();
  json.Set("jobs", std::move(array));
  return JsonResponse(200, json);
}

HttpResponse Server::HandleStatus(const std::string& id) {
  Result<JobManager::JobSnapshot> snapshot = jobs_->GetStatus(id);
  if (!snapshot.ok()) return ErrorResponse(snapshot.status());
  return JsonResponse(200, SnapshotJson(snapshot.ValueOrDie()));
}

HttpResponse Server::HandleResult(const HttpRequest& request,
                                  const std::string& id) {
  Result<JobManager::JobSnapshot> snapshot = jobs_->GetStatus(id);
  if (!snapshot.ok()) return ErrorResponse(snapshot.status());
  const JobManager::JobSnapshot& job = snapshot.ValueOrDie();
  switch (job.state) {
    case JobState::kQueued:
    case JobState::kRunning:
      return ErrorResponse(
          409, Status::Invalid("job '", id, "' is still ",
                               JobStateToString(job.state),
                               "; poll /v1/jobs/", id, " until done"));
    case JobState::kFailed:
      return ErrorResponse(500, job.error);
    case JobState::kCanceled:
      return ErrorResponse(409, job.error);
    case JobState::kDone:
      break;
  }

  api::ArtifactsJsonOptions artifact_options;
  for (const auto& [key, value] : request.QueryParams()) {
    if (key == "best_csv" && (value == "0" || value == "false")) {
      artifact_options.include_best_csv = false;
    }
  }
  Result<std::shared_ptr<const api::RunArtifacts>> artifacts =
      jobs_->GetResult(id);
  if (!artifacts.ok()) return ErrorResponse(artifacts.status());
  return JsonResponse(
      200, ArtifactsToJson(*artifacts.ValueOrDie(), artifact_options));
}

HttpResponse Server::HandleCancel(const std::string& id) {
  Status canceled = jobs_->Cancel(id);
  if (!canceled.ok()) return ErrorResponse(canceled);
  Result<JobManager::JobSnapshot> snapshot = jobs_->GetStatus(id);
  if (!snapshot.ok()) return ErrorResponse(snapshot.status());
  api::JsonValue json = SnapshotJson(snapshot.ValueOrDie());
  json.Set("canceling", api::JsonValue::MakeBool(true));
  return JsonResponse(202, json);
}

HttpResponse Server::HandleHealth() {
  JobManager::Admission admission = jobs_->admission();

  api::JsonValue json = api::JsonValue::MakeObject();
  // `degraded` is the drain signal: the instance still answers, but load
  // balancers should stop routing new submissions to it.
  json.Set("status", api::JsonValue::MakeString(
                         admission.degraded ? "degraded" : "ok"));
  json.Set("degraded", api::JsonValue::MakeBool(admission.degraded));
  json.Set("version", api::JsonValue::MakeString(kVersion));
  json.Set("uptime_seconds", api::JsonValue::MakeNumber(uptime_.ElapsedSeconds()));
  json.Set("workers", api::JsonValue::MakeInt(jobs_->workers()));

  // Scheduler load, sourced from the metrics registry (the same series
  // /metrics exports) so probes see the numbers without a Prometheus stack.
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  api::JsonValue scheduler = api::JsonValue::MakeObject();
  scheduler.Set("workers", api::JsonValue::MakeInt(
                               registry.GaugeValue("evocat_scheduler_workers")));
  scheduler.Set("steals",
                api::JsonValue::MakeInt(
                    registry.CounterValue("evocat_scheduler_steals_total")));
  scheduler.Set("queue_depth",
                api::JsonValue::MakeInt(
                    registry.GaugeValue("evocat_scheduler_queue_depth")));
  json.Set("scheduler", std::move(scheduler));

  JobManager::Counts counts = jobs_->counts();
  api::JsonValue jobs = api::JsonValue::MakeObject();
  jobs.Set("queued", api::JsonValue::MakeInt(counts.queued));
  jobs.Set("running", api::JsonValue::MakeInt(counts.running));
  jobs.Set("done", api::JsonValue::MakeInt(counts.done));
  jobs.Set("failed", api::JsonValue::MakeInt(counts.failed));
  jobs.Set("canceled", api::JsonValue::MakeInt(counts.canceled));
  // Monotonic lifetime terminal count (done/failed/canceled above only
  // cover the bounded retained table): load balancers drain on queue depth
  // (queued + running) and watch finished for liveness progress.
  jobs.Set("finished", api::JsonValue::MakeInt(counts.finished));
  json.Set("jobs", std::move(jobs));

  api::JsonValue queue = api::JsonValue::MakeObject();
  queue.Set("pending", api::JsonValue::MakeInt(admission.pending));
  queue.Set("capacity", api::JsonValue::MakeInt(admission.pending_capacity));
  queue.Set("rejected_submits",
            api::JsonValue::MakeInt(admission.rejected_submits));
  queue.Set("retained_bytes",
            api::JsonValue::MakeInt(admission.retained_bytes));
  queue.Set("retained_capacity",
            api::JsonValue::MakeInt(admission.retained_capacity));
  json.Set("queue", std::move(queue));

  if (const Wal* wal = jobs_->wal()) {
    Wal::Stats stats = wal->stats();
    api::JsonValue wal_json = api::JsonValue::MakeObject();
    wal_json.Set("path", api::JsonValue::MakeString(wal->path()));
    wal_json.Set("replayed_records",
                 api::JsonValue::MakeInt(stats.replayed_records));
    wal_json.Set("recovered_jobs",
                 api::JsonValue::MakeInt(stats.recovered_jobs));
    wal_json.Set("invalid_specs",
                 api::JsonValue::MakeInt(stats.invalid_specs));
    wal_json.Set("quarantined_bytes",
                 api::JsonValue::MakeInt(stats.quarantined_bytes));
    if (!stats.quarantine_path.empty()) {
      wal_json.Set("quarantine_path",
                   api::JsonValue::MakeString(stats.quarantine_path));
    }
    wal_json.Set("compactions", api::JsonValue::MakeInt(stats.compactions));
    json.Set("wal", std::move(wal_json));
  }

  api::Session::CacheStats stats = session_->cache_stats();
  api::JsonValue cache = api::JsonValue::MakeObject();
  cache.Set("hits", api::JsonValue::MakeInt(stats.hits));
  cache.Set("misses", api::JsonValue::MakeInt(stats.misses));
  cache.Set("evictions", api::JsonValue::MakeInt(stats.evictions));
  cache.Set("entries", api::JsonValue::MakeInt(stats.entries));
  json.Set("cache", std::move(cache));
  return JsonResponse(200, json);
}

}  // namespace server
}  // namespace evocat
