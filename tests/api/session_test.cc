#include "api/session.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "datagen/profile.h"
#include "obs/metrics.h"
#include "protection/population_builder.h"

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

/// The paper's four cases and the seed mix (population table) of each.
struct PaperCase {
  const char* name;
  protection::PopulationSpec population;
  size_t seeds;
};

std::vector<PaperCase> PaperCases() {
  return {{"housing", protection::HousingPopulationSpec(), 110},
          {"german", protection::GermanFlarePopulationSpec(), 104},
          {"flare", protection::GermanFlarePopulationSpec(), 104},
          {"adult", protection::AdultPopulationSpec(), 86}};
}

/// Bit-for-bit equality of everything a run computes (telemetry aside).
void ExpectSameRun(const RunArtifacts& a, const RunArtifacts& b) {
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.protected_attrs, b.protected_attrs);
  EXPECT_EQ(a.population_size, b.population_size);
  auto same_members = [](const std::vector<MemberSummary>& x,
                         const std::vector<MemberSummary>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].origin, y[i].origin) << i;
      EXPECT_EQ(x[i].fitness.il, y[i].fitness.il) << i;
      EXPECT_EQ(x[i].fitness.dr, y[i].fitness.dr) << i;
      EXPECT_EQ(x[i].fitness.score, y[i].fitness.score) << i;
    }
  };
  same_members(a.initial, b.initial);
  same_members(a.final_population, b.final_population);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t g = 0; g < a.history.size(); ++g) {
    EXPECT_EQ(a.history[g].op, b.history[g].op) << g;
    EXPECT_EQ(a.history[g].accepted, b.history[g].accepted) << g;
    EXPECT_EQ(a.history[g].min_score, b.history[g].min_score) << g;
    EXPECT_EQ(a.history[g].mean_score, b.history[g].mean_score) << g;
    EXPECT_EQ(a.history[g].max_score, b.history[g].max_score) << g;
  }
  EXPECT_EQ(a.best.origin, b.best.origin);
  EXPECT_TRUE(a.best_data.SameCodes(b.best_data));
  EXPECT_EQ(a.evaluations, b.evaluations);
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

TEST(SessionTest, PaperCasesResolve) {
  // Each named case loads its profile with 3 protected attributes and
  // defaults to the paper's seed mix for it.
  Session session;
  for (const PaperCase& paper_case : PaperCases()) {
    JobSpec spec;
    spec.source.case_name = paper_case.name;
    ASSERT_TRUE(spec.Validate().ok()) << paper_case.name;
    Session::SourceData source = session.LoadSource(spec).ValueOrDie();
    EXPECT_EQ(source.label, paper_case.name);
    EXPECT_EQ(source.attrs.size(), 3u) << paper_case.name;
    EXPECT_EQ(source.default_spec.TotalCount(),
              static_cast<int>(paper_case.seeds))
        << paper_case.name;
    size_t roster = 0;
    for (const auto& method : RosterFromPopulationSpec(paper_case.population)) {
      roster += ExpandGrid(method).size();
    }
    EXPECT_EQ(roster, paper_case.seeds) << paper_case.name;
  }

  JobSpec unknown;
  unknown.source.case_name = "nonexistent";
  Status invalid = unknown.Validate();
  ASSERT_FALSE(invalid.ok());
  EXPECT_NE(invalid.message().find("source.case"), std::string::npos)
      << invalid.ToString();
  EXPECT_FALSE(session.Run(unknown).ok());
}

TEST(SessionTest, NamedCaseEqualsItsInlineProfileAndRoster) {
  // A named case is exactly its profile plus the paper's seed mix: the same
  // job with the profile inline and the roster spelled out runs bit for bit
  // the same. This pins the default roster to the population table.
  Session session;
  for (const PaperCase& paper_case : PaperCases()) {
    JobSpec named;
    named.source.case_name = paper_case.name;
    // Two cheap measures keep the eight seed binds fast; the roster and the
    // data are what is compared.
    named.measures.enabled = {"CTBIL", "ID"};
    named.ga.generations = 10;
    JobSpec spelled = named;
    spelled.source.has_inline_profile = true;
    spelled.source.profile =
        datagen::ProfileByName(paper_case.name).ValueOrDie();
    spelled.methods = RosterFromPopulationSpec(paper_case.population);
    SCOPED_TRACE(paper_case.name);
    RunArtifacts from_name = session.Run(named).ValueOrDie();
    EXPECT_EQ(from_name.population_size,
              static_cast<int64_t>(paper_case.seeds));
    ExpectSameRun(from_name, session.Run(spelled).ValueOrDie());
  }
}

TEST(SessionTest, RemoveBestFractionShrinksPopulation) {
  // 40% of the 5 seeds: the 2 best are removed before evolution, and the
  // rest start in the same order with the same scores.
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(17, "removal")).ValueOrDie();
  Session session;
  RunArtifacts full = session.Run(spec).ValueOrDie();
  spec.remove_best_fraction = 0.4;
  RunArtifacts reduced = session.Run(spec).ValueOrDie();
  EXPECT_EQ(reduced.population_size, 3);
  ASSERT_EQ(reduced.initial.size(), full.initial.size() - 2);
  for (size_t i = 0; i < reduced.initial.size(); ++i) {
    EXPECT_EQ(reduced.initial[i].origin, full.initial[i + 2].origin);
    EXPECT_EQ(reduced.initial[i].fitness.score,
              full.initial[i + 2].fitness.score);
  }
  EXPECT_GE(reduced.initial_scores.min, full.initial_scores.min);
}

TEST(SessionTest, RejectsBadRemoveFraction) {
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(19, "bad")).ValueOrDie();
  Session session;
  for (double fraction : {1.0, -0.1}) {
    spec.remove_best_fraction = fraction;
    auto result = session.Run(spec);
    ASSERT_FALSE(result.ok()) << fraction;
    EXPECT_NE(result.status().message().find("remove_best_fraction"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(SessionTest, AggregationReachesBreakdown) {
  JobSpec spec = JobSpec::FromJsonText(TinyJobJson(23, "mean")).ValueOrDie();
  Session session;
  RunArtifacts mean_run = session.Run(spec).ValueOrDie();
  for (const auto& member : mean_run.initial) {
    EXPECT_NEAR(member.fitness.score,
                (member.fitness.il + member.fitness.dr) / 2.0, 1e-9);
  }
  spec.measures.aggregation = metrics::ScoreAggregation::kMax;
  RunArtifacts max_run = session.Run(spec).ValueOrDie();
  for (const auto& member : max_run.initial) {
    EXPECT_NEAR(member.fitness.score,
                std::max(member.fitness.il, member.fitness.dr), 1e-9);
  }
}

}  // namespace
}  // namespace api
}  // namespace evocat
