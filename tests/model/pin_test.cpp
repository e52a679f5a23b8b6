// Byte pins for the training executor: every algorithm's store key and
// trained .model bytes at a tiny budget, plus one digest over the whole
// registered spec catalog's content addresses. A refactor of the
// training loop must leave all of them unchanged.
//
// Keys are pure text hashes (FNV-1a over the canonical spec string), so
// the catalog and key pins hold on any host. Model bytes also depend on
// the host's libm; on a model-digest mismatch the test prints the libm
// fingerprint, as the golden suite does, so host drift can be told apart
// from a code change.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "model/train.h"
#include "util/libm_fingerprint.h"
#include "util/log.h"

namespace rlbf::model {
namespace {

namespace fs = std::filesystem;

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The registered spec at the tiny budget `rlbf_run train --epochs=2
/// --trajectories=3 --traj_jobs=64 --jobs=800` applies.
TrainingSpec tiny_budget(const std::string& name) {
  TrainingSpec spec = find_training_spec(name);
  spec.trainer.epochs = 2;
  spec.trainer.trajectories_per_epoch = 3;
  spec.trainer.jobs_per_trajectory = 64;
  spec.workload.trace_jobs = 800;
  return spec;
}

struct Pin {
  const char* label;
  TrainingSpec spec;
  const char* key;
  const char* model_digest;
};

class TrainPinTest : public ::testing::Test {
 protected:
  void SetUp() override { util::set_log_level(util::LogLevel::Warn); }
  void TearDown() override { util::set_log_level(util::LogLevel::Info); }
};

TEST_F(TrainPinTest, StoreKeysAndModelBytesPerAlgorithm) {
  const Pin pins[] = {
      {"ppo", find_training_spec("sdsc-tiny"), "46712fb2eaa800ab",
       "c1a59fccf48f3bbb"},
      {"dqn", tiny_budget("abl-rl-dqn"), "693502a6e53082d3",
       "b1d5e67bce0e33f2"},
      {"reinforce", tiny_budget("abl-rl-reinforce"), "286aff96bd87ab73",
       "7a40ea139e6d953f"},
  };
  const std::string root = ::testing::TempDir() + "/rlbf_train_pins";
  fs::remove_all(root);
  Store store(root);
  TrainOptions options;
  options.threads = 2;  // results are thread-count independent
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.label);
    const TrainOutcome outcome = train_spec(pin.spec, store, options);
    ASSERT_FALSE(outcome.cache_hit);
    EXPECT_EQ(outcome.entry.key, pin.key);
    const std::string digest = fnv1a_hex(file_bytes(outcome.entry.path));
    EXPECT_EQ(digest, pin.model_digest)
        << "trained .model bytes changed; host libm fingerprint:\n"
        << util::libm_fingerprint();
  }
  fs::remove_all(root);
}

TEST_F(TrainPinTest, RegisteredCatalogContentAddresses) {
  std::string catalog;
  for (const std::string& name : training_spec_names()) {
    catalog += name + ' ' + fingerprint(find_training_spec(name)) + '\n';
  }
  EXPECT_EQ(fnv1a_hex(catalog), "83acfb88e686d6ea") << catalog;
}

}  // namespace
}  // namespace rlbf::model
