#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/json.h"
#include "api/session.h"

namespace evocat {
namespace server {
namespace {

/// A synthetic job that finishes in well under a second.
std::string TinyJobJson(const std::string& name, int generations) {
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

/// Server + dependencies with the lifetime the destructors need.
struct TestDaemon {
  api::Session session;
  TaskScheduler scheduler{2};
  JobManager jobs;
  Server server;

  explicit TestDaemon(Server::Options options = {},
                      JobManager::Options job_options = {})
      : jobs(&session, &scheduler, job_options),
        server(&jobs, &session, [&options] {
          if (options.unix_socket.empty()) {
            options.host = "127.0.0.1";
            options.port = 0;  // ephemeral
          }
          return options;
        }()) {}
};

api::JsonValue ParseBody(const HttpResponse& response) {
  auto parsed = api::JsonValue::Parse(response.body);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << response.body;
  return parsed.ok() ? std::move(parsed).ValueOrDie()
                     : api::JsonValue::MakeObject();
}

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

/// Polls the status endpoint until the job reaches `state` (or a deadline).
std::string PollUntil(int port, const std::string& id,
                      const std::string& state) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string last = "?";
  while (std::chrono::steady_clock::now() < deadline) {
    auto response = HttpFetch("127.0.0.1", port, Get("/v1/jobs/" + id));
    if (response.ok()) {
      api::JsonValue json = ParseBody(response.ValueOrDie());
      if (const api::JsonValue* value = json.Find("state")) {
        last = value->string_value();
        if (last == state) return last;
        // Terminal states other than the expected one: stop early.
        if (last == "done" || last == "failed" || last == "canceled") {
          return last;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return last;
}

TEST(ServerRoutingTest, UnknownRoutesAndMethods) {
  TestDaemon daemon;  // routing needs no Start()
  EXPECT_EQ(daemon.server.Handle(Get("/nope")).status, 404);
  EXPECT_EQ(daemon.server.Handle(Post("/healthz")).status, 405);
  EXPECT_EQ(daemon.server.Handle(Get("/v1/jobs/job-000009")).status, 404);
  EXPECT_EQ(daemon.server.Handle(Post("/v1/jobs/x/result")).status, 405);
  EXPECT_EQ(daemon.server.Handle(Get("/v1/jobs/x/cancel")).status, 405);
  EXPECT_EQ(daemon.server.Handle(Get("/v1/jobs/x/unknown")).status, 404);
}

TEST(ServerRoutingTest, SubmitValidationNamesFieldAndPosition) {
  TestDaemon daemon;
  // JSON syntax error: the façade's line/column diagnostics surface as-is.
  HttpResponse bad_syntax =
      daemon.server.Handle(Post("/v1/jobs", "{\"name\": }"));
  EXPECT_EQ(bad_syntax.status, 400);
  EXPECT_NE(bad_syntax.body.find("line 1"), std::string::npos)
      << bad_syntax.body;

  // Spec error: names the offending field.
  HttpResponse bad_field = daemon.server.Handle(
      Post("/v1/jobs", "{\"ga\": {\"mutation_rate\": 3.0}}"));
  EXPECT_EQ(bad_field.status, 400);
  EXPECT_NE(bad_field.body.find("ga.mutation_rate"), std::string::npos)
      << bad_field.body;

  // Measure parameter ranges are checked at submit, not when the job binds.
  HttpResponse bad_measure = daemon.server.Handle(
      Post("/v1/jobs", "{\"measures\": {\"prl_em_iterations\": 0}}"));
  EXPECT_EQ(bad_measure.status, 400);
  EXPECT_NE(bad_measure.body.find("PRL.em_iterations"), std::string::npos)
      << bad_measure.body;
}

TEST(ServerIntegrationTest, SubmitPollFetchRoundTrip) {
  TestDaemon daemon;
  ASSERT_TRUE(daemon.server.Start().ok());
  int port = daemon.server.port();
  ASSERT_GT(port, 0);

  // Health first: the daemon is alive before any job.
  HttpResponse health =
      HttpFetch("127.0.0.1", port, Get("/healthz")).ValueOrDie();
  EXPECT_EQ(health.status, 200);
  api::JsonValue health_json = ParseBody(health);
  EXPECT_EQ(health_json.Find("status")->string_value(), "ok");
  EXPECT_EQ(health_json.Find("workers")->int_value(), 2);
  // Build version + job-depth counters: what a load balancer drains on.
  ASSERT_NE(health_json.Find("version"), nullptr);
  EXPECT_FALSE(health_json.Find("version")->string_value().empty());
  const api::JsonValue* health_jobs = health_json.Find("jobs");
  ASSERT_NE(health_jobs, nullptr);
  ASSERT_NE(health_jobs->Find("finished"), nullptr);
  EXPECT_EQ(health_jobs->Find("finished")->int_value(), 0);

  // Submit: 202 with an id and poll/result paths.
  HttpResponse submitted =
      HttpFetch("127.0.0.1", port,
                Post("/v1/jobs", TinyJobJson("round-trip", 12)))
          .ValueOrDie();
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  api::JsonValue submit_json = ParseBody(submitted);
  std::string id = submit_json.Find("id")->string_value();
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(submit_json.Find("poll")->string_value(), "/v1/jobs/" + id);

  // Poll until done, then fetch the artifacts.
  EXPECT_EQ(PollUntil(port, id, "done"), "done");
  HttpResponse result =
      HttpFetch("127.0.0.1", port, Get("/v1/jobs/" + id + "/result"))
          .ValueOrDie();
  ASSERT_EQ(result.status, 200) << result.body;
  api::JsonValue artifacts = ParseBody(result);
  EXPECT_EQ(artifacts.Find("job_name")->string_value(), "round-trip");
  EXPECT_EQ(artifacts.Find("num_rows")->int_value(), 60);
  EXPECT_EQ(artifacts.Find("history")->size(), 12u);
  EXPECT_NE(artifacts.Find("best_csv"), nullptr);

  // The served artifacts match a direct in-process run of the same spec.
  api::JobSpec spec =
      api::JobSpec::FromJsonText(TinyJobJson("round-trip", 12)).ValueOrDie();
  api::Session local;
  api::RunArtifacts direct = local.Run(spec).ValueOrDie();
  EXPECT_DOUBLE_EQ(
      artifacts.Find("final_scores")->Find("min")->number_value(),
      direct.final_scores.min);
  EXPECT_EQ(artifacts.Find("best")->Find("origin")->string_value(),
            direct.best.origin);

  // ?best_csv=0 prunes the inline CSV.
  HttpResponse slim =
      HttpFetch("127.0.0.1", port,
                Get("/v1/jobs/" + id + "/result?best_csv=0"))
          .ValueOrDie();
  EXPECT_EQ(ParseBody(slim).Find("best_csv"), nullptr);

  // The job list mentions the finished job.
  HttpResponse list = HttpFetch("127.0.0.1", port, Get("/v1/jobs")).ValueOrDie();
  EXPECT_EQ(list.status, 200);
  EXPECT_EQ(ParseBody(list).Find("jobs")->size(), 1u);

  // The lifetime finished counter advanced with the terminal transition.
  HttpResponse health_after =
      HttpFetch("127.0.0.1", port, Get("/healthz")).ValueOrDie();
  EXPECT_EQ(
      ParseBody(health_after).Find("jobs")->Find("finished")->int_value(), 1);

  daemon.server.Stop();
}

TEST(ServerIntegrationTest, CancelStopsALongJob) {
  TestDaemon daemon;
  ASSERT_TRUE(daemon.server.Start().ok());
  int port = daemon.server.port();

  // A job that would run for a long time (huge generation budget).
  HttpResponse submitted =
      HttpFetch("127.0.0.1", port,
                Post("/v1/jobs", TinyJobJson("long-haul", 50000000)))
          .ValueOrDie();
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  std::string id = ParseBody(submitted).Find("id")->string_value();

  // Fetching the result of an unfinished job is a 409.
  HttpResponse early =
      HttpFetch("127.0.0.1", port, Get("/v1/jobs/" + id + "/result"))
          .ValueOrDie();
  EXPECT_EQ(early.status, 409) << early.body;

  HttpResponse canceled =
      HttpFetch("127.0.0.1", port, Post("/v1/jobs/" + id + "/cancel"))
          .ValueOrDie();
  EXPECT_EQ(canceled.status, 202) << canceled.body;

  EXPECT_EQ(PollUntil(port, id, "canceled"), "canceled");
  HttpResponse result =
      HttpFetch("127.0.0.1", port, Get("/v1/jobs/" + id + "/result"))
          .ValueOrDie();
  EXPECT_EQ(result.status, 409);
  EXPECT_NE(result.body.find("Cancelled"), std::string::npos) << result.body;

  // Canceling a finished job is rejected.
  HttpResponse again =
      HttpFetch("127.0.0.1", port, Post("/v1/jobs/" + id + "/cancel"))
          .ValueOrDie();
  EXPECT_EQ(again.status, 400) << again.body;

  daemon.server.Stop();
}

TEST(ServerIntegrationTest, ServesOverUnixSocket) {
  Server::Options options;
  options.unix_socket = ::testing::TempDir() + "/evocatd_test.sock";
  TestDaemon daemon(options);
  ASSERT_TRUE(daemon.server.Start().ok());

  HttpResponse health =
      HttpFetchUnix(options.unix_socket, Get("/healthz")).ValueOrDie();
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(ParseBody(health).Find("status")->string_value(), "ok");

  HttpResponse submitted =
      HttpFetchUnix(options.unix_socket,
                    Post("/v1/jobs", TinyJobJson("via-unix", 5)))
          .ValueOrDie();
  EXPECT_EQ(submitted.status, 202) << submitted.body;

  daemon.server.Stop();
}

TEST(ServerIntegrationTest, KeepAliveConnectionCarriesManyRequests) {
  TestDaemon daemon;
  ASSERT_TRUE(daemon.server.Start().ok());
  int port = daemon.server.port();

  HttpConnection connection =
      HttpConnection::ConnectTcp("127.0.0.1", port).ValueOrDie();

  // Several round trips over the one TCP connection: submit, then poll and
  // fetch without reconnecting.
  HttpResponse health = connection.RoundTrip(Get("/healthz")).ValueOrDie();
  EXPECT_EQ(health.status, 200);
  EXPECT_TRUE(health.keep_alive);
  ASSERT_TRUE(connection.connected());

  HttpResponse submitted =
      connection.RoundTrip(Post("/v1/jobs", TinyJobJson("persistent", 6)))
          .ValueOrDie();
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  std::string id = ParseBody(submitted).Find("id")->string_value();
  ASSERT_TRUE(connection.connected());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string state = "?";
  while (std::chrono::steady_clock::now() < deadline && state != "done") {
    HttpResponse polled =
        connection.RoundTrip(Get("/v1/jobs/" + id)).ValueOrDie();
    state = ParseBody(polled).Find("state")->string_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(state, "done");

  HttpResponse result =
      connection.RoundTrip(Get("/v1/jobs/" + id + "/result?best_csv=0"))
          .ValueOrDie();
  EXPECT_EQ(result.status, 200) << result.body;
  EXPECT_TRUE(connection.connected());

  daemon.server.Stop();
}

TEST(ServerIntegrationTest, FullQueueAnswers429WithRetryAfter) {
  Server::Options options;
  options.retry_after_seconds = 7;
  JobManager::Options job_options;
  job_options.max_pending_jobs = 1;
  TestDaemon daemon(options, job_options);  // routing only, no sockets

  // Pin both workers (waiting for each pin to leave the queue, so the
  // 1-slot queue never bounces a pin), then fill the single queue slot.
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    HttpResponse admitted = daemon.server.Handle(
        Post("/v1/jobs", TinyJobJson("pin-" + std::to_string(i), 50000000)));
    ASSERT_EQ(admitted.status, 202) << admitted.body;
    ids.push_back(ParseBody(admitted).Find("id")->string_value());
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline &&
           daemon.jobs.counts().running < std::min(i + 1, 2)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(daemon.jobs.counts().running, 2);
  ASSERT_EQ(daemon.jobs.admission().pending, 1);

  HttpResponse rejected = daemon.server.Handle(
      Post("/v1/jobs", TinyJobJson("bounced", 4)));
  EXPECT_EQ(rejected.status, 429) << rejected.body;
  ASSERT_NE(rejected.FindHeader("Retry-After"), nullptr);
  EXPECT_EQ(*rejected.FindHeader("Retry-After"), "7");
  EXPECT_NE(rejected.body.find("ResourceExhausted"), std::string::npos)
      << rejected.body;

  // /healthz reflects the saturation: degraded, queue counters populated.
  api::JsonValue health = ParseBody(daemon.server.Handle(Get("/healthz")));
  EXPECT_EQ(health.Find("status")->string_value(), "degraded");
  EXPECT_TRUE(health.Find("degraded")->bool_value());
  const api::JsonValue* queue = health.Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->Find("pending")->int_value(), 1);
  EXPECT_EQ(queue->Find("capacity")->int_value(), 1);
  EXPECT_EQ(queue->Find("rejected_submits")->int_value(), 1);

  for (const std::string& id : ids) {
    EXPECT_EQ(daemon.server.Handle(Post("/v1/jobs/" + id + "/cancel")).status,
              202);
  }
}

TEST(ServerIntegrationTest, BearerAuthProtectsEveryRouteButHealth) {
  Server::Options options;
  options.auth_token = "sesame";
  TestDaemon daemon(options);

  // Probes stay unauthenticated.
  EXPECT_EQ(daemon.server.Handle(Get("/healthz")).status, 200);

  HttpResponse anonymous = daemon.server.Handle(Get("/v1/jobs"));
  EXPECT_EQ(anonymous.status, 401);
  ASSERT_NE(anonymous.FindHeader("WWW-Authenticate"), nullptr);

  HttpRequest wrong_scheme = Get("/v1/jobs");
  wrong_scheme.headers.emplace_back("Authorization", "Basic sesame");
  EXPECT_EQ(daemon.server.Handle(wrong_scheme).status, 401);

  HttpRequest wrong_token = Get("/v1/jobs");
  wrong_token.headers.emplace_back("Authorization", "Bearer sesamee");
  EXPECT_EQ(daemon.server.Handle(wrong_token).status, 401);

  HttpRequest authorized = Get("/v1/jobs");
  authorized.headers.emplace_back("Authorization", "Bearer sesame");
  EXPECT_EQ(daemon.server.Handle(authorized).status, 200);
}

}  // namespace
}  // namespace server
}  // namespace evocat
