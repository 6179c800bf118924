// The snapshot store's orphaned-temporary sweep. A crash between the
// temporary write and the rename (the store/rename crash point) leaks a
// `.snapshot.tmp` sibling that no reader ever opens; construction sweeps
// such orphans. The live server's write-back retry is covered by
// ServerDurabilityTest.TransientWritebackFaultIsRetriedToSuccess.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/catalog/snapshot_store.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/exec/fault_injection.h"
#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1000.0);

std::string FreshDir(const std::string& name) {
  // Suffixed with the pid: each gtest case runs as its own ctest process,
  // and concurrent cases of the same binary must not share a directory.
  const std::string dir =
      testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<double> MakeSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample;
  sample.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sample.push_back(kDomain.lo + rng.NextDouble() * kDomain.width());
  }
  return sample;
}

EstimatorConfig EquiWidthConfig(int bins) {
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = bins;
  return config;
}

size_t CountFiles(const std::string& dir, const std::string& needle) {
  size_t count = 0;
  if (!std::filesystem::is_directory(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find(needle) != std::string::npos) {
      ++count;
    }
  }
  return count;
}

class TmpSweepTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::DisarmAll(); }
};

TEST_F(TmpSweepTest, ConstructionSweepsForgedOrphan) {
  const std::string dir = FreshDir("sweep_forged");
  const CatalogKey key{"t", "x", 123};
  // A valid snapshot that must survive the sweep, plus a forged orphan of
  // the shape WriteBytesToFile's temporary naming produces.
  {
    SnapshotStore store(dir);
    auto built =
        BuildEstimator(MakeSample(200, 1), kDomain, EquiWidthConfig(16));
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(store.Put(key, *built.value()).ok());
  }
  const std::string orphan =
      dir + "/" + SnapshotStore::LabelFor(key) + ".snapshot.tmp42";
  {
    std::ofstream out(orphan, std::ios::binary);
    out << "half-written snapshot bytes";
  }
  ASSERT_TRUE(std::filesystem::exists(orphan));

  SnapshotStore swept(dir);
  EXPECT_EQ(swept.swept_tmp_files(), 1u);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  // The real snapshot is untouched and loadable.
  EXPECT_TRUE(swept.Contains(key));
  EXPECT_TRUE(swept.Get(key).ok());
}

TEST_F(TmpSweepTest, StoreRenameFaultLeaksTmpAndNextSweepReclaimsIt) {
  const std::string dir = FreshDir("sweep_rename_fault");
  const CatalogKey key{"t", "x", 7};
  auto built =
      BuildEstimator(MakeSample(200, 2), kDomain, EquiWidthConfig(16));
  ASSERT_TRUE(built.ok());
  {
    SnapshotStore store(dir);
    ScopedFault fault(kFaultPointStoreRename);
    // The crash point fires between the temporary write and the rename:
    // the Put fails and the temporary is leaked exactly as process death
    // at that instant would leave it.
    const Status failed = store.Put(key, *built.value());
    EXPECT_EQ(failed.code(), StatusCode::kInternal);
    EXPECT_FALSE(store.Contains(key));
    EXPECT_EQ(CountFiles(dir, ".snapshot.tmp"), 1u);
  }
  // "Restart": the next store over the directory sweeps the orphan, and
  // the retried Put succeeds cleanly.
  SnapshotStore restarted(dir);
  EXPECT_EQ(restarted.swept_tmp_files(), 1u);
  EXPECT_EQ(CountFiles(dir, ".snapshot.tmp"), 0u);
  ASSERT_TRUE(restarted.Put(key, *built.value()).ok());
  EXPECT_TRUE(restarted.Get(key).ok());
}

}  // namespace
}  // namespace selest
