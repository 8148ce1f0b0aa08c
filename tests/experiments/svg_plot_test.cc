#include "experiments/svg_plot.h"

#include <fstream>

#include <gtest/gtest.h>

namespace evocat {
namespace experiments {
namespace {

api::MemberSummary Member(const char* origin, double il, double dr,
                          double score) {
  api::MemberSummary member;
  member.origin = origin;
  member.fitness.il = il;
  member.fitness.dr = dr;
  member.fitness.score = score;
  return member;
}

api::RunArtifacts FakeRun() {
  api::RunArtifacts run;
  run.dataset = "fake";
  run.initial = {Member("seed_a", 10.0, 60.0, 35.0),
                 Member("seed_b", 40.0, 20.0, 30.0)};
  run.final_population = {Member("child", 22.0, 24.0, 24.0),
                          Member("seed_b", 40.0, 20.0, 30.0)};
  run.initial_scores = {30.0, 32.5, 35.0};
  run.final_scores = {24.0, 27.0, 30.0};
  for (int g = 1; g <= 5; ++g) {
    core::GenerationRecord record;
    record.generation = g;
    record.min_score = 30.0 - g;
    record.mean_score = 32.0 - g;
    record.max_score = 35.0 - g;
    run.history.push_back(record);
  }
  return run;
}

TEST(SvgPlotTest, DispersionContainsAllPoints) {
  auto svg = RenderDispersionSvg(FakeRun(), "Dispersion");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // 2 hollow initial circles + 2 filled final circles + 2 legend markers.
  size_t circles = 0;
  for (size_t pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, 6u);
  EXPECT_NE(svg.find("Dispersion"), std::string::npos);
  EXPECT_NE(svg.find("stroke-dasharray"), std::string::npos);  // diagonal
}

TEST(SvgPlotTest, EvolutionHasThreeSeries) {
  auto svg = RenderEvolutionSvg(FakeRun(), "Evolution");
  size_t polylines = 0;
  for (size_t pos = svg.find("<polyline"); pos != std::string::npos;
       pos = svg.find("<polyline", pos + 1)) {
    ++polylines;
  }
  EXPECT_EQ(polylines, 3u);  // min / mean / max
  for (const char* label : {">min<", ">mean<", ">max<"}) {
    EXPECT_NE(svg.find(label), std::string::npos) << label;
  }
}

TEST(SvgPlotTest, EvolutionHandlesEmptyHistory) {
  api::RunArtifacts run = FakeRun();
  run.history.clear();
  auto svg = RenderEvolutionSvg(run, "Empty");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgPlotTest, WriteFigureSvgsCreatesBothFiles) {
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(WriteFigureSvgs(FakeRun(), "T", dir, "svg_test").ok());
  for (const char* suffix : {"_dispersion.svg", "_evolution.svg"}) {
    std::ifstream in(dir + "/svg_test" + suffix);
    ASSERT_TRUE(in.good()) << suffix;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("</svg>"), std::string::npos) << suffix;
  }
}

TEST(SvgPlotTest, WriteFigureSvgsFailsOnBadDirectory) {
  EXPECT_FALSE(
      WriteFigureSvgs(FakeRun(), "T", "/nonexistent/dir", "x").ok());
}

}  // namespace
}  // namespace experiments
}  // namespace evocat
