// evocatd — long-running JobSpec server.
//
// Accepts the evocat::api JobSpec JSON over a minimal HTTP/1.1 front-end
// (TCP or Unix-domain socket) and executes jobs asynchronously on the
// work-stealing scheduler: submit returns a job id immediately, status is
// polled, results come back as RunArtifacts JSON. With `--wal` every
// submission is durably logged before it is admitted, and unfinished jobs
// are re-queued (and re-run, bit-identically — specs embed their seeds) on
// the next boot. Protocol reference and deployment notes: docs/server.md.
//
// Examples:
//   evocatd --port=8080
//   evocatd --port=0                       # ephemeral port, printed on start
//   evocatd --socket=/run/evocat.sock      # Unix-domain socket instead
//   evocatd --threads=8 --cache-capacity=32 --max-finished-jobs=256
//   evocatd --wal=/var/lib/evocat/jobs.wal # crash-safe job queue
//   evocatd --auth-token-file=/etc/evocat/token --max-pending-jobs=64
//
//   curl -s localhost:8080/healthz
//   curl -s -X POST localhost:8080/v1/jobs --data-binary @job.json
//   curl -s localhost:8080/v1/jobs/job-000001
//   curl -s localhost:8080/v1/jobs/job-000001/result?best_csv=0
//   curl -s -X POST localhost:8080/v1/jobs/job-000001/cancel

#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "common/string_utils.h"
#include "common/version.h"
#include "obs/trace.h"
#include "server/server.h"
#include "server/wal.h"

using namespace evocat;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

Result<std::string> ReadTokenFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot read auth token file '", path, "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  std::string token = Trim(contents.str());
  if (token.empty()) {
    return Status::Invalid("auth token file '", path, "' is empty");
  }
  return token;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string socket_path;
  std::string wal_path;
  std::string auth_token_file;
  int64_t port = 8080;
  int64_t threads = 0;
  int64_t cache_capacity = 8;
  int64_t max_finished_jobs = 64;
  int64_t max_pending_jobs = 256;
  int64_t max_retained_mb = 256;
  int64_t max_body_mb = 8;
  int64_t max_header_kb = 64;
  int64_t idle_timeout_ms = 30000;
  int64_t header_timeout_ms = 10000;
  int64_t body_timeout_ms = 30000;
  int64_t retry_after_seconds = 2;
  bool no_wal_sync = false;
  bool verbose = false;
  bool log_json = false;
  std::string trace_dir;

  FlagParser parser("evocatd",
                    "long-running JobSpec server (protocol: docs/server.md)");
  parser.AddString("host", "TCP bind address", &host);
  parser.AddInt("port", "TCP port (0 = ephemeral, printed on start)", &port);
  parser.AddString("socket",
                   "serve on this Unix-domain socket path instead of TCP",
                   &socket_path);
  parser.AddString("wal",
                   "write-ahead log path; submissions are durable and "
                   "unfinished jobs re-run after a crash",
                   &wal_path);
  parser.AddBool("no-wal-sync",
                 "skip fsync on WAL appends (faster, loses the last records "
                 "on power failure)",
                 &no_wal_sync);
  parser.AddString("auth-token-file",
                   "file holding the bearer token; when set, all routes but "
                   "/healthz require 'Authorization: Bearer <token>'",
                   &auth_token_file);
  parser.AddInt("threads",
                "scheduler worker threads (0 = hardware concurrency)",
                &threads);
  parser.AddInt("cache-capacity",
                "max CSV originals kept in the session's LRU cache",
                &cache_capacity);
  parser.AddInt("max-finished-jobs",
                "finished jobs retained for result fetches", &max_finished_jobs);
  parser.AddInt("max-pending-jobs",
                "queued-job admission bound; submissions beyond it get 429 "
                "(0 = unbounded)",
                &max_pending_jobs);
  parser.AddInt("max-retained-mb",
                "retention budget for finished-job artifacts in MiB, evicted "
                "oldest-first beyond it (0 = unbounded)",
                &max_retained_mb);
  parser.AddInt("max-body-mb", "request body limit in MiB", &max_body_mb);
  parser.AddInt("max-header-kb",
                "request-line + header limit in KiB (431 beyond it)",
                &max_header_kb);
  parser.AddInt("idle-timeout-ms",
                "keep-alive idle window before the connection closes",
                &idle_timeout_ms);
  parser.AddInt("header-timeout-ms",
                "slow-loris guard: max ms for a request's header block",
                &header_timeout_ms);
  parser.AddInt("body-timeout-ms",
                "slow-loris guard: max ms for a request's body",
                &body_timeout_ms);
  parser.AddInt("retry-after-seconds",
                "Retry-After advertised on 429 responses",
                &retry_after_seconds);
  parser.AddBool("verbose", "log at INFO instead of WARNING", &verbose);
  parser.AddBool("log-json",
                 "emit one JSON object per log line (ts, level, component, "
                 "msg, job_id) instead of text",
                 &log_json);
  parser.AddString("trace-dir",
                   "enable trace spans and export each finished job's trace "
                   "to <dir>/<job-id>.trace.json (Chrome trace_event format)",
                   &trace_dir);

  Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    EVOCAT_LOG(ERROR) << parsed.ToString();
    return 2;
  }
  if (parser.help_requested()) return 0;
  SetLogLevel(verbose ? LogLevel::kInfo : LogLevel::kWarning);
  if (log_json) SetLogFormat(LogFormat::kJson);
  if (!trace_dir.empty()) obs::EnableTracing();

  std::string auth_token;
  if (!auth_token_file.empty()) {
    Result<std::string> token = ReadTokenFile(auth_token_file);
    if (!token.ok()) {
      EVOCAT_LOG(ERROR) << token.status().ToString();
      return 2;
    }
    auth_token = std::move(token).ValueOrDie();
  }

  std::unique_ptr<server::Wal> wal;
  if (!wal_path.empty()) {
    server::Wal::Options wal_options;
    wal_options.sync = !no_wal_sync;
    Result<std::unique_ptr<server::Wal>> opened =
        server::Wal::Open(wal_path, wal_options);
    if (!opened.ok()) {
      EVOCAT_LOG(ERROR) << opened.status().ToString();
      return 1;
    }
    wal = std::move(opened).ValueOrDie();
    const server::Wal::Stats& stats = wal->stats();
    std::printf("evocatd wal %s: %lld records replayed, %lld jobs to recover",
                wal_path.c_str(),
                static_cast<long long>(stats.replayed_records),
                static_cast<long long>(stats.recovered_jobs));
    if (stats.quarantined_bytes > 0) {
      std::printf(", %lld damaged tail bytes quarantined to %s",
                  static_cast<long long>(stats.quarantined_bytes),
                  stats.quarantine_path.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  api::Session::Options session_options;
  session_options.max_cached_sources =
      cache_capacity < 0 ? 0 : static_cast<size_t>(cache_capacity);
  api::Session session(session_options);

  TaskScheduler scheduler(static_cast<int>(threads));

  server::JobManager::Options job_options;
  job_options.max_finished_jobs =
      max_finished_jobs < 0 ? 0 : static_cast<size_t>(max_finished_jobs);
  job_options.max_pending_jobs =
      max_pending_jobs < 0 ? 0 : static_cast<size_t>(max_pending_jobs);
  job_options.max_retained_bytes =
      static_cast<size_t>(max_retained_mb < 0 ? 0 : max_retained_mb) * 1024 *
      1024;
  job_options.wal = wal.get();
  job_options.trace_dir = trace_dir;
  server::JobManager jobs(&session, &scheduler, job_options);

  server::Server::Options server_options;
  server_options.host = host;
  server_options.port = static_cast<int>(port);
  server_options.unix_socket = socket_path;
  server::HttpReadLimits& limits = server_options.read_limits;
  limits.max_body_bytes =
      static_cast<size_t>(max_body_mb < 1 ? 1 : max_body_mb) * 1024 * 1024;
  limits.max_header_bytes =
      static_cast<size_t>(max_header_kb < 1 ? 1 : max_header_kb) * 1024;
  limits.idle_timeout_ms = static_cast<int>(idle_timeout_ms);
  limits.header_timeout_ms = static_cast<int>(header_timeout_ms);
  limits.body_timeout_ms = static_cast<int>(body_timeout_ms);
  server_options.retry_after_seconds = static_cast<int>(retry_after_seconds);
  server_options.auth_token = auth_token;
  server::Server server(&jobs, &session, server_options);

  Status started = server.Start();
  if (!started.ok()) {
    EVOCAT_LOG(ERROR) << started.ToString();
    return 1;
  }
  if (socket_path.empty()) {
    std::printf("evocatd %s listening on http://%s:%d (%d workers%s%s)\n",
                kVersion, host.c_str(), server.port(),
                scheduler.num_workers(), wal ? ", wal" : "",
                auth_token.empty() ? "" : ", auth");
  } else {
    std::printf("evocatd %s listening on unix socket %s (%d workers%s%s)\n",
                kVersion, socket_path.c_str(), scheduler.num_workers(),
                wal ? ", wal" : "", auth_token.empty() ? "" : ", auth");
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // send() already passes MSG_NOSIGNAL; this covers any other fd the
  // process writes while a peer disconnects.
  std::signal(SIGPIPE, SIG_IGN);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  // Graceful shutdown: stop accepting first, then JobManager's destructor
  // cancels queued/running jobs and drains the scheduler. With a WAL the
  // drained-but-unfinished jobs re-run on the next boot.
  std::printf("evocatd shutting down (draining jobs)\n");
  std::fflush(stdout);
  server.Stop();
  return 0;
}
