#include "api/session.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "obs/metrics.h"

namespace evocat {
namespace api {
namespace {

/// A small synthetic job (inline profile, trimmed roster, few generations)
/// that runs in well under a second.
std::string TinyJobJson(uint64_t master_seed, const std::string& name) {
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
      {"name": "pram", "grid": {"retain": [0.7, 0.4]}},
      {"name": "rankswapping", "grid": {"p_percent": [10]}}
    ],
    "measures": {"aggregation": "mean", "prl_em_iterations": 10},
    "ga": {"generations": 12},
    "seeds": {"master": )" + std::to_string(master_seed) + R"(}
  })";
}

/// Engine generations run in this process so far, over both `op` series.
int64_t EngineGenerations() {
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  return registry.CounterValue("evocat_engine_generations_total",
                               {{"op", "mutation"}}) +
         registry.CounterValue("evocat_engine_generations_total",
                               {{"op", "crossover"}});
}

TEST(SessionTest, JsonSpecDrivesEndToEndRun) {
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(11, "tiny-run")).ValueOrDie();
  Session session;
  RunArtifacts artifacts = session.Run(spec).ValueOrDie();

  EXPECT_EQ(artifacts.job_name, "tiny-run");
  EXPECT_EQ(artifacts.dataset, "tiny");
  EXPECT_EQ(artifacts.num_rows, 60);
  EXPECT_EQ(artifacts.protected_attrs.size(), 3u);
  EXPECT_EQ(artifacts.initial.size(), 5u);  // 2 + 2 + 1 method instances
  EXPECT_EQ(artifacts.final_population.size(), 5u);
  EXPECT_EQ(artifacts.history.size(), 12u);
  EXPECT_GT(artifacts.evaluations, 0);

  // Populations are sorted and the GA never worsens the elitist stats.
  EXPECT_LE(artifacts.initial_scores.min, artifacts.initial_scores.mean);
  EXPECT_LE(artifacts.final_scores.min, artifacts.initial_scores.min + 1e-9);
  EXPECT_DOUBLE_EQ(artifacts.best.fitness.score, artifacts.final_scores.min);

  // The resolved spec pins every stage seed.
  EXPECT_TRUE(artifacts.spec.seeds.data.has_value());
  EXPECT_TRUE(artifacts.spec.seeds.protection.has_value());
  EXPECT_TRUE(artifacts.spec.seeds.ga.has_value());

  // Method provenance flows from the registry-built roster.
  bool found_micro = false;
  for (const auto& member : artifacts.initial) {
    if (member.origin.rfind("microaggregation(", 0) == 0) found_micro = true;
  }
  EXPECT_TRUE(found_micro);
}

TEST(SessionTest, ResolvedSpecReproducesRunExactly) {
  Session session;
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(21, "repro")).ValueOrDie();
  RunArtifacts first = session.Run(spec).ValueOrDie();
  // Round-trip the resolved spec through JSON and run it again.
  JobSpec replay =
      JobSpec::FromJsonText(first.spec.ToJsonText()).ValueOrDie();
  RunArtifacts second = session.Run(replay).ValueOrDie();
  EXPECT_DOUBLE_EQ(first.final_scores.min, second.final_scores.min);
  EXPECT_DOUBLE_EQ(first.final_scores.mean, second.final_scores.mean);
  EXPECT_DOUBLE_EQ(first.final_scores.max, second.final_scores.max);
  EXPECT_EQ(first.best.origin, second.best.origin);
  EXPECT_TRUE(first.best_data.SameCodes(second.best_data));
}

TEST(SessionTest, OutputTogglesPruneArtifacts) {
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(31, "pruned")).ValueOrDie();
  spec.outputs.initial_population = false;
  spec.outputs.final_population = false;
  spec.outputs.history = false;
  Session session;
  RunArtifacts artifacts = session.Run(spec).ValueOrDie();
  EXPECT_TRUE(artifacts.initial.empty());
  EXPECT_TRUE(artifacts.final_population.empty());
  EXPECT_TRUE(artifacts.history.empty());
  // Scores and the best individual survive regardless.
  EXPECT_GT(artifacts.initial_scores.max, 0.0);
  EXPECT_FALSE(artifacts.best.origin.empty());
}

TEST(SessionTest, RunBatchMatchesSoloRunsPerSeed) {
  std::vector<JobSpec> jobs;
  for (uint64_t seed : {101, 202, 303}) {
    jobs.push_back(JobSpec::FromJsonText(
                       TinyJobJson(seed, "job" + std::to_string(seed)))
                       .ValueOrDie());
  }

  Session batch_session;
  std::vector<Result<RunArtifacts>> batch = batch_session.RunBatch(jobs);
  ASSERT_EQ(batch.size(), jobs.size());

  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    Session solo_session;
    RunArtifacts solo = solo_session.Run(jobs[i]).ValueOrDie();
    const RunArtifacts& batched = batch[i].ValueOrDie();
    EXPECT_EQ(batched.job_name, jobs[i].name);
    EXPECT_DOUBLE_EQ(batched.final_scores.min, solo.final_scores.min);
    EXPECT_DOUBLE_EQ(batched.final_scores.mean, solo.final_scores.mean);
    EXPECT_DOUBLE_EQ(batched.final_scores.max, solo.final_scores.max);
    EXPECT_TRUE(batched.best_data.SameCodes(solo.best_data));
  }
}

TEST(SessionTest, RunBatchIsolatesFailingJobs) {
  std::vector<JobSpec> jobs;
  jobs.push_back(JobSpec::FromJsonText(TinyJobJson(7, "good")).ValueOrDie());
  JobSpec bad = jobs[0];
  bad.name = "bad";
  bad.source.kind = SourceSpec::Kind::kCsv;
  bad.source.path = "/nonexistent/evocat.csv";
  bad.source.has_inline_profile = false;
  bad.protected_attributes = {"a0"};
  jobs.push_back(bad);

  Session session;
  std::vector<Result<RunArtifacts>> results = session.RunBatch(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_FALSE(results[1].ok());
  EXPECT_NE(results[1].status().message().find("/nonexistent/evocat.csv"),
            std::string::npos);
}

TEST(SessionTest, CsvSourceRunsEndToEnd) {
  // Materialize a small original as CSV, then drive a job from it.
  JobSpec synth = JobSpec::FromJsonText(TinyJobJson(5, "gen")).ValueOrDie();
  Session session;
  Session::SourceData generated = session.LoadSource(synth).ValueOrDie();
  std::string path = ::testing::TempDir() + "/evocat_session_original.csv";
  ASSERT_TRUE(WriteCsvFile(generated.original, path).ok());

  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(5, "csv")).ValueOrDie();
  spec.source = SourceSpec();
  spec.source.kind = SourceSpec::Kind::kCsv;
  spec.source.path = path;
  spec.source.ordinal_attributes = {"a0"};
  spec.protected_attributes = {"a0", "a1", "a2"};

  RunArtifacts artifacts = session.Run(spec).ValueOrDie();
  EXPECT_EQ(artifacts.dataset, path);
  EXPECT_EQ(artifacts.num_rows, 60);
  EXPECT_EQ(artifacts.initial.size(), 5u);

  // Second run hits the session's CSV cache and stays identical.
  RunArtifacts again = session.Run(spec).ValueOrDie();
  EXPECT_TRUE(artifacts.best_data.SameCodes(again.best_data));
  std::remove(path.c_str());
}

TEST(SessionTest, BestCsvOutputIsWritten) {
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(13, "out")).ValueOrDie();
  std::string path = ::testing::TempDir() + "/evocat_session_best.csv";
  spec.outputs.best_csv_path = path;
  Session session;
  RunArtifacts artifacts = session.Run(spec).ValueOrDie();

  auto written = ReadCsvFile(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.ValueOrDie().num_rows(), artifacts.best_data.num_rows());
  std::remove(path.c_str());
}

TEST(SessionTest, SingleInstanceRosterFailsCleanly) {
  // One method instance can never form a viable GA population; the engine's
  // error must name the actual count (best-removal must not erase to zero).
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(3, "solo")).ValueOrDie();
  spec.methods.clear();
  MethodGridSpec pram;
  pram.name = "pram";
  spec.methods.push_back(pram);
  spec.remove_best_fraction = 0.5;
  Session session;
  auto result = session.Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("got 1"), std::string::npos)
      << result.status().ToString();
}

TEST(SessionTest, SkewedBatchWorkStealingMatchesSoloRuns) {
  // 1 heavy + 3 light jobs: the shape where work stealing matters (the heavy
  // job's subtasks spill onto workers that finished their light jobs).
  // Whatever the schedule does, every artifact must stay bit-identical to a
  // solo run of the same spec.
  std::vector<JobSpec> jobs;
  JobSpec heavy = JobSpec::FromJsonText(TinyJobJson(71, "heavy")).ValueOrDie();
  heavy.source.profile.num_records = 220;
  heavy.ga.generations = 60;
  jobs.push_back(heavy);
  for (uint64_t seed : {72, 73, 74}) {
    jobs.push_back(JobSpec::FromJsonText(
                       TinyJobJson(seed, "light" + std::to_string(seed)))
                       .ValueOrDie());
  }

  Session ws_session;
  std::vector<Result<RunArtifacts>> ws = ws_session.RunBatch(jobs);

  ASSERT_EQ(ws.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(ws[i].ok()) << ws[i].status().ToString();
    Session solo_session;
    RunArtifacts solo = solo_session.Run(jobs[i]).ValueOrDie();
    const RunArtifacts& stolen = ws[i].ValueOrDie();
    EXPECT_DOUBLE_EQ(stolen.final_scores.min, solo.final_scores.min);
    EXPECT_DOUBLE_EQ(stolen.final_scores.mean, solo.final_scores.mean);
    EXPECT_DOUBLE_EQ(stolen.final_scores.max, solo.final_scores.max);
    EXPECT_TRUE(stolen.best_data.SameCodes(solo.best_data));
  }
}

TEST(SessionTest, RunControlCancelsBeforeAndDuringExecution) {
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(41, "cancel")).ValueOrDie();
  Session session;

  // Pre-set flag: the run never starts.
  RunControl preset;
  preset.cancel.store(true);
  auto never_ran = session.Run(spec, &preset);
  ASSERT_FALSE(never_ran.ok());
  EXPECT_EQ(never_ran.status().code(), StatusCode::kCancelled);

  // Cancel mid-run from another thread: a huge generation budget ends early.
  // The canceler waits until the engine has finished a generation, so the
  // cancel lands inside the GA however long the pre-GA stages take.
  spec.ga.generations = 50000000;
  RunControl control;
  const int64_t generations_before = EngineGenerations();
  std::thread canceler([&control, generations_before] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (EngineGenerations() <= generations_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    control.cancel.store(true);
  });
  auto canceled = session.Run(spec, &control);
  canceler.join();
  ASSERT_FALSE(canceled.ok());
  EXPECT_EQ(canceled.status().code(), StatusCode::kCancelled);
  EXPECT_NE(canceled.status().message().find("generation"), std::string::npos);

  // The same spec still runs to completion without a control.
  spec.ga.generations = 5;
  EXPECT_TRUE(session.Run(spec).ok());
}

TEST(SessionTest, DefaultRosterMatchesPaperMix) {
  // No methods -> the paper's mix for the source; "german" seeds 104 files.
  JobSpec spec;
  spec.source.kind = SourceSpec::Kind::kSynthetic;
  spec.source.case_name = "german";
  std::vector<MethodGridSpec> roster =
      RosterFromPopulationSpec(protection::GermanFlarePopulationSpec());
  size_t total = 0;
  for (const auto& method : roster) total += ExpandGrid(method).size();
  EXPECT_EQ(total, 104u);
}

}  // namespace
}  // namespace api
}  // namespace evocat
