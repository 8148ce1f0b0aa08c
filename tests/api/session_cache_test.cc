#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "data/csv.h"

namespace evocat {
namespace api {
namespace {

/// A fast CSV-source job over `path` (tiny roster, few generations).
JobSpec CsvJob(const std::string& path, uint64_t seed) {
  JobSpec spec;
  spec.name = "cache-" + std::to_string(seed);
  spec.source.kind = SourceSpec::Kind::kCsv;
  spec.source.path = path;
  spec.source.ordinal_attributes = {"a0"};
  spec.protected_attributes = {"a0", "a1", "a2"};
  MethodGridSpec micro;
  micro.name = "microaggregation";
  micro.grid = {{"k", {"3", "6"}}};
  MethodGridSpec pram;
  pram.name = "pram";
  pram.grid = {{"retain", {"0.7", "0.4"}}};
  spec.methods = {micro, pram};
  spec.measures.prl_em_iterations = 10;
  spec.ga.generations = 8;
  spec.seeds.master = seed;
  spec.outputs.initial_population = false;
  spec.outputs.final_population = false;
  spec.outputs.history = false;
  return spec;
}

/// Materializes a distinct tiny original CSV and returns its path.
std::string WriteOriginal(int index) {
  JobSpec synth;
  synth.source.kind = SourceSpec::Kind::kSynthetic;
  synth.source.has_inline_profile = true;
  synth.source.profile.name = "tiny";
  synth.source.profile.num_records = 50;
  for (const char* name : {"a0", "a1", "a2"}) {
    datagen::SyntheticAttribute attribute;
    attribute.name = name;
    attribute.cardinality = 6;
    synth.source.profile.attributes.push_back(attribute);
  }
  synth.source.profile.protected_attributes = {"a0", "a1", "a2"};
  synth.seeds.master = 9000 + static_cast<uint64_t>(index);
  Session session;
  Session::SourceData source = session.LoadSource(synth).ValueOrDie();
  std::string path = ::testing::TempDir() + "/evocat_cache_" +
                     std::to_string(index) + ".csv";
  EXPECT_TRUE(WriteCsvFile(source.original, path).ok());
  return path;
}

TEST(SessionCacheTest, EvictionPreservesCorrectness) {
  std::string path_a = WriteOriginal(0);
  std::string path_b = WriteOriginal(1);

  // Reference artifacts, each from a fresh session: an empty cache loads
  // from disk.
  RunArtifacts ref_a = Session().Run(CsvJob(path_a, 1)).ValueOrDie();
  RunArtifacts ref_b = Session().Run(CsvJob(path_b, 2)).ValueOrDie();

  // Capacity 1 forces an eviction on every alternation.
  Session::Options lru_options;
  lru_options.max_cached_sources = 1;
  Session session(lru_options);
  RunArtifacts a1 = session.Run(CsvJob(path_a, 1)).ValueOrDie();  // miss
  RunArtifacts b1 = session.Run(CsvJob(path_b, 2)).ValueOrDie();  // miss, evicts A
  RunArtifacts a2 = session.Run(CsvJob(path_a, 1)).ValueOrDie();  // miss again

  EXPECT_TRUE(a1.best_data.SameCodes(ref_a.best_data));
  EXPECT_TRUE(b1.best_data.SameCodes(ref_b.best_data));
  EXPECT_TRUE(a2.best_data.SameCodes(ref_a.best_data));
  EXPECT_DOUBLE_EQ(a1.final_scores.min, a2.final_scores.min);

  Session::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_GE(stats.evictions, 2);
  EXPECT_EQ(stats.entries, 1);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SessionCacheTest, RecencyPromotionKeepsHotEntries) {
  std::string path_a = WriteOriginal(2);
  std::string path_b = WriteOriginal(3);
  std::string path_c = WriteOriginal(4);

  Session::Options options;
  options.max_cached_sources = 2;
  Session session(options);
  EXPECT_TRUE(session.Run(CsvJob(path_a, 1)).ok());  // miss  {A}
  EXPECT_TRUE(session.Run(CsvJob(path_b, 2)).ok());  // miss  {B, A}
  EXPECT_TRUE(session.Run(CsvJob(path_a, 3)).ok());  // hit   {A, B}
  EXPECT_TRUE(session.Run(CsvJob(path_c, 4)).ok());  // miss, evicts B
  EXPECT_TRUE(session.Run(CsvJob(path_a, 5)).ok());  // hit: A survived

  Session::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(path_c.c_str());
}

TEST(SessionCacheTest, UnboundedWhenCapacityZero) {
  std::string path_a = WriteOriginal(5);
  std::string path_b = WriteOriginal(6);
  Session::Options options;
  options.max_cached_sources = 0;
  Session session(options);
  EXPECT_TRUE(session.Run(CsvJob(path_a, 1)).ok());
  EXPECT_TRUE(session.Run(CsvJob(path_b, 2)).ok());
  Session::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, 2);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace api
}  // namespace evocat
