/// Crash/fault-injection rig for evocatd: forks the real daemon binary
/// (path baked in as EVOCATD_BINARY by CMake), drives it over a Unix-domain
/// socket, SIGKILLs it mid-run, restarts it against the same WAL and asserts
/// the recovered jobs complete with artifacts identical to an uninterrupted
/// in-process run. Also boots the daemon against a corrupt WAL tail
/// (quarantine path) and exercises the auth and backpressure contracts
/// end-to-end through the real process.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/json.h"
#include "api/session.h"
#include "server/http.h"
#include "server/wal.h"

namespace evocat {
namespace server {
namespace {

std::string TinyJobJson(const std::string& name, long long generations) {
  return R"({
    "name": ")" + name + R"(",
    "source": {
      "kind": "synthetic",
      "profile": {
        "name": "tiny",
        "num_records": 60,
        "attributes": [
          {"name": "a0", "kind": "ordinal", "cardinality": 7},
          {"name": "a1", "kind": "nominal", "cardinality": 5},
          {"name": "a2", "kind": "nominal", "cardinality": 9}
        ],
        "protected_attributes": ["a0", "a1", "a2"]
      }
    },
    "methods": [
      {"name": "microaggregation", "grid": {"k": [3, 6]}},
      {"name": "pram", "grid": {"retain": [0.7, 0.4]}}
    ],
    "measures": {"prl_em_iterations": 10},
    "ga": {"generations": )" + std::to_string(generations) + R"(},
    "seeds": {"master": 404}
  })";
}

constexpr long long kForever = 50000000;

std::string UniquePath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir() + "/" + info->name() + "_" + stem;
  // TempDir survives across runs; a WAL (or socket/token file) left by a
  // previous execution would leak into this test. Scrub the path and the
  // WAL's sidecars.
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
  std::remove((path + ".compact").c_str());
  return path;
}

/// The daemon process under test. SIGKILL via `Kill` simulates the crash;
/// the destructor reaps whatever is left so no test leaks a process.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> args) {
    pid_ = ::fork();
    if (pid_ == 0) {
      int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::dup2(devnull, STDERR_FILENO);
        ::close(devnull);
      }
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(EVOCATD_BINARY));
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(EVOCATD_BINARY, argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Reap();
    }
  }

  void Kill() {  // the crash: no handlers run, nothing is flushed
    ::kill(pid_, SIGKILL);
    Reap();
  }

  void Terminate() {  // orderly shutdown (drains jobs)
    ::kill(pid_, SIGTERM);
    Reap();
  }

  bool alive() const { return pid_ > 0; }

 private:
  void Reap() {
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
};

HttpRequest Get(const std::string& target) {
  HttpRequest request;
  request.method = "GET";
  request.target = target;
  return request;
}

HttpRequest Post(const std::string& target, std::string body = "") {
  HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.body = std::move(body);
  return request;
}

bool WaitForHealth(const std::string& socket_path, int seconds = 15) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    Result<HttpResponse> health = HttpFetchUnix(socket_path, Get("/healthz"));
    if (health.ok() && health.ValueOrDie().status == 200) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

api::JsonValue ParseBody(const HttpResponse& response) {
  auto parsed = api::JsonValue::Parse(response.body);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << response.body;
  return parsed.ok() ? std::move(parsed).ValueOrDie()
                     : api::JsonValue::MakeObject();
}

std::string PollUntil(const std::string& socket_path, const std::string& id,
                      const std::string& state, int seconds = 120) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  std::string last = "?";
  while (std::chrono::steady_clock::now() < deadline) {
    auto response = HttpFetchUnix(socket_path, Get("/v1/jobs/" + id));
    if (response.ok()) {
      api::JsonValue json = ParseBody(response.ValueOrDie());
      if (const api::JsonValue* value = json.Find("state")) {
        last = value->string_value();
        if (last == state || last == "done" || last == "failed" ||
            last == "canceled") {
          return last;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return last;
}

TEST(FaultInjectionTest, SigkillMidRunThenRestartCompletesIdentically) {
  std::string socket_path = UniquePath("d.sock");
  std::string wal_path = UniquePath("jobs.wal");
  // One worker: the forever-blocker pins it, so the tiny job is guaranteed
  // to still be queued (unfinished in the WAL) when the crash hits.
  std::vector<std::string> args = {"--socket=" + socket_path,
                                   "--wal=" + wal_path, "--threads=1"};

  {
    Daemon daemon(args);
    ASSERT_TRUE(WaitForHealth(socket_path)) << "daemon never came up";

    HttpResponse blocker =
        HttpFetchUnix(socket_path,
                      Post("/v1/jobs", TinyJobJson("blocker", kForever)))
            .ValueOrDie();
    ASSERT_EQ(blocker.status, 202) << blocker.body;
    EXPECT_EQ(ParseBody(blocker).Find("id")->string_value(), "job-000001");

    HttpResponse tiny =
        HttpFetchUnix(socket_path,
                      Post("/v1/jobs", TinyJobJson("survivor", 12)))
            .ValueOrDie();
    ASSERT_EQ(tiny.status, 202) << tiny.body;
    EXPECT_EQ(ParseBody(tiny).Find("id")->string_value(), "job-000002");

    daemon.Kill();  // SIGKILL: both jobs unfinished, only the WAL survives
  }

  {
    Daemon daemon(args);
    ASSERT_TRUE(WaitForHealth(socket_path)) << "daemon did not restart";

    // The restarted daemon replayed both submits under their original ids.
    api::JsonValue health = ParseBody(
        HttpFetchUnix(socket_path, Get("/healthz")).ValueOrDie());
    const api::JsonValue* wal_stats = health.Find("wal");
    ASSERT_NE(wal_stats, nullptr) << "healthz has no wal section";
    EXPECT_EQ(wal_stats->Find("recovered_jobs")->int_value(), 2);
    EXPECT_EQ(wal_stats->Find("quarantined_bytes")->int_value(), 0);

    api::JsonValue survivor = ParseBody(
        HttpFetchUnix(socket_path, Get("/v1/jobs/job-000002")).ValueOrDie());
    ASSERT_NE(survivor.Find("recovered"), nullptr);
    EXPECT_TRUE(survivor.Find("recovered")->bool_value());

    // Unblock the worker: cancel the forever job, let the survivor finish.
    HttpResponse canceled =
        HttpFetchUnix(socket_path, Post("/v1/jobs/job-000001/cancel"))
            .ValueOrDie();
    EXPECT_EQ(canceled.status, 202) << canceled.body;
    ASSERT_EQ(PollUntil(socket_path, "job-000002", "done"), "done");

    // Jobs run their measures on the daemon's own pool: binding and
    // sharding must not start a second, hardware-sized one beside it.
    api::JsonValue after = ParseBody(
        HttpFetchUnix(socket_path, Get("/healthz")).ValueOrDie());
    ASSERT_NE(after.Find("scheduler"), nullptr);
    EXPECT_EQ(after.Find("scheduler")->Find("workers")->int_value(), 1);

    HttpResponse result =
        HttpFetchUnix(socket_path, Get("/v1/jobs/job-000002/result"))
            .ValueOrDie();
    ASSERT_EQ(result.status, 200) << result.body;
    api::JsonValue artifacts = ParseBody(result);

    // Bit-identical to an uninterrupted run: specs embed their seeds, so
    // the crash costs wall-clock, never changes the answer.
    api::JobSpec spec =
        api::JobSpec::FromJsonText(TinyJobJson("survivor", 12)).ValueOrDie();
    api::Session oracle;
    api::RunArtifacts direct = oracle.Run(spec).ValueOrDie();
    EXPECT_EQ(artifacts.Find("final_scores")->Find("min")->number_value(),
              direct.final_scores.min);
    EXPECT_EQ(artifacts.Find("final_scores")->Find("max")->number_value(),
              direct.final_scores.max);
    EXPECT_EQ(artifacts.Find("best")->Find("origin")->string_value(),
              direct.best.origin);
    EXPECT_EQ(artifacts.Find("history")->size(), direct.history.size());

    daemon.Terminate();
  }

  // Third boot: both jobs reached durable terminal states, nothing re-runs.
  auto wal = Wal::Open(wal_path).ValueOrDie();
  EXPECT_TRUE(wal->TakeRecovered().empty());
}

TEST(FaultInjectionTest, BootsAndQuarantinesCorruptWalTail) {
  std::string socket_path = UniquePath("d.sock");
  std::string wal_path = UniquePath("jobs.wal");
  {
    auto wal = Wal::Open(wal_path).ValueOrDie();
    api::JobSpec spec =
        api::JobSpec::FromJsonText(TinyJobJson("survivor", 8)).ValueOrDie();
    ASSERT_TRUE(wal->AppendSubmit("job-000001", spec).ok());
  }
  {
    // The torn tail of a submit whose payload never made it to disk.
    std::ofstream out(wal_path, std::ios::binary | std::ios::app);
    out << "R submit job-000002 - 4096 00000000\n{\"name\": \"lost";
  }

  Daemon daemon({"--socket=" + socket_path, "--wal=" + wal_path});
  ASSERT_TRUE(WaitForHealth(socket_path))
      << "daemon must boot despite the damaged WAL tail";

  api::JsonValue health =
      ParseBody(HttpFetchUnix(socket_path, Get("/healthz")).ValueOrDie());
  const api::JsonValue* wal_stats = health.Find("wal");
  ASSERT_NE(wal_stats, nullptr);
  EXPECT_GT(wal_stats->Find("quarantined_bytes")->int_value(), 0);
  EXPECT_EQ(wal_stats->Find("recovered_jobs")->int_value(), 1);

  // The bad suffix is preserved for forensics, not silently dropped.
  std::ifstream quarantine(wal_path + ".quarantine");
  EXPECT_TRUE(quarantine.good());

  // The job before the tear still completes.
  EXPECT_EQ(PollUntil(socket_path, "job-000001", "done"), "done");
  daemon.Terminate();
}

TEST(FaultInjectionTest, BearerTokenGuardsEverythingButHealth) {
  std::string socket_path = UniquePath("d.sock");
  std::string token_path = UniquePath("token");
  {
    std::ofstream out(token_path);
    out << "s3cret-t0ken\n";  // trailing newline must be trimmed
  }

  Daemon daemon(
      {"--socket=" + socket_path, "--auth-token-file=" + token_path});
  ASSERT_TRUE(WaitForHealth(socket_path));  // healthz needs no token

  HttpResponse anonymous =
      HttpFetchUnix(socket_path, Get("/v1/jobs")).ValueOrDie();
  EXPECT_EQ(anonymous.status, 401) << anonymous.body;
  ASSERT_NE(anonymous.FindHeader("WWW-Authenticate"), nullptr);

  HttpRequest wrong = Get("/v1/jobs");
  wrong.headers.emplace_back("Authorization", "Bearer s3cret-t0kex");
  EXPECT_EQ(HttpFetchUnix(socket_path, wrong).ValueOrDie().status, 401);

  HttpRequest right = Get("/v1/jobs");
  right.headers.emplace_back("Authorization", "Bearer s3cret-t0ken");
  EXPECT_EQ(HttpFetchUnix(socket_path, right).ValueOrDie().status, 200);

  daemon.Terminate();
}

TEST(FaultInjectionTest, SubmitBurstGets429WhileHealthStaysResponsive) {
  std::string socket_path = UniquePath("d.sock");
  Daemon daemon({"--socket=" + socket_path, "--threads=1",
                 "--max-pending-jobs=1"});
  ASSERT_TRUE(WaitForHealth(socket_path));

  ASSERT_EQ(HttpFetchUnix(socket_path,
                          Post("/v1/jobs", TinyJobJson("blocker", kForever)))
                .ValueOrDie()
                .status,
            202);
  ASSERT_EQ(PollUntil(socket_path, "job-000001", "running"), "running");
  ASSERT_EQ(HttpFetchUnix(socket_path,
                          Post("/v1/jobs", TinyJobJson("queued", kForever)))
                .ValueOrDie()
                .status,
            202);

  // The queue is full: the burst bounces with the backpressure contract.
  HttpResponse rejected =
      HttpFetchUnix(socket_path, Post("/v1/jobs", TinyJobJson("burst", 4)))
          .ValueOrDie();
  EXPECT_EQ(rejected.status, 429) << rejected.body;
  const std::string* retry_after = rejected.FindHeader("Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_FALSE(retry_after->empty());

  // An overloaded daemon still answers health — and says it is degraded.
  HttpResponse health =
      HttpFetchUnix(socket_path, Get("/healthz")).ValueOrDie();
  EXPECT_EQ(health.status, 200);
  api::JsonValue health_json = ParseBody(health);
  EXPECT_TRUE(health_json.Find("degraded")->bool_value());
  EXPECT_EQ(health_json.Find("status")->string_value(), "degraded");
  EXPECT_EQ(
      health_json.Find("queue")->Find("rejected_submits")->int_value(), 1);

  daemon.Terminate();
}

}  // namespace
}  // namespace server
}  // namespace evocat
