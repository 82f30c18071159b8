// Checkpointing under crashes: the LC staging path (PrepareCheckpoint must
// push flash-resident dirty pages to disk before the checkpoint is
// advertised), and crashes landing between CHECKPOINT_BEGIN and the
// control-block write — restart must fall back to the previous complete
// checkpoint and still restore every committed transaction.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/lc_cache.h"
#include "fault/fault_injector.h"
#include "recovery/restart.h"
#include "testbed/crash_storm.h"
#include "testbed/testbed.h"
#include "tests/test_util.h"

namespace face {
namespace {

/// A small audited testbed over one policy, shared by the tests below:
/// the storms' update-heavy KV mix, so flash-resident dirty state builds up
/// fast.
struct AuditedRig {
  GoldenImage golden;
  std::unique_ptr<Testbed> tb;

  Status Build(CachePolicy policy, uint64_t seed) {
    auto factory = std::make_shared<workload::YcsbFactory>(StormKv(600));
    FACE_ASSIGN_OR_RETURN(golden, GoldenImage::BuildFor(factory));

    TestbedOptions to;
    to.clients = 4;
    to.seed = seed;
    to.workload = factory;
    // Smaller than the ~45-page working set, so evictions continuously
    // push (dirty) pages into the flash tier.
    to.buffer_frames = 24;
    to.flash_pages = 384;
    to.seg_entries = 128;
    to.policy = policy;
    tb = std::make_unique<Testbed>(to, &golden);
    return tb->Start();
  }

  Status RunOps(uint64_t n) {
    RunOptions run;
    run.txns = n;
    return tb->Run(run).status();
  }

  StatusOr<workload::AuditReport> Check() { return tb->Audit(); }
};

TEST(LcCheckpointTest, PrepareCheckpointStagesDirtyFlashPagesToDisk) {
  AuditedRig rig;
  FACE_ASSERT_OK(rig.Build(CachePolicy::kLc, /*seed=*/11));
  FACE_ASSERT_OK(rig.RunOps(300));

  auto* lc = dynamic_cast<LcCache*>(rig.tb->cache());
  ASSERT_NE(lc, nullptr);
  ASSERT_GT(lc->dirty_pages(), 0u)
      << "update-heavy run should leave dirty pages in the LC cache";

  const uint64_t disk_writes_before = lc->stats().disk_writes;
  FACE_ASSERT_OK(rig.tb->db()->TakeCheckpoint().status());
  EXPECT_EQ(lc->dirty_pages(), 0u)
      << "PrepareCheckpoint must stage every flash-dirty page to disk";
  EXPECT_GT(lc->stats().disk_writes, disk_writes_before);

  // The checkpoint's guarantee: a crash right after it needs no flash
  // contents at all. LC restarts cold and the state must still match.
  FACE_ASSERT_OK(rig.tb->Crash());  // invalidates `lc`
  FACE_ASSERT_OK(rig.tb->Recover().status());
  auto* lc2 = dynamic_cast<LcCache*>(rig.tb->cache());
  ASSERT_NE(lc2, nullptr);
  EXPECT_EQ(lc2->cached_pages(), 0u) << "LC must restart cold";
  FACE_ASSERT_OK_AND_ASSIGN(workload::AuditReport audit, rig.Check());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(CheckpointCrashTest, CrashMidCheckpointFallsBackToPreviousOne) {
  AuditedRig rig;
  FACE_ASSERT_OK(rig.Build(CachePolicy::kFace, /*seed=*/23));
  FACE_ASSERT_OK(rig.RunOps(150));

  // A complete checkpoint, then more committed work.
  FACE_ASSERT_OK_AND_ASSIGN(Lsn complete_ckpt,
                            rig.tb->db()->TakeCheckpoint());
  FACE_ASSERT_OK(rig.RunOps(120));

  // Crash a few writes into the next checkpoint: after its BEGIN exists
  // but before the control block could advertise it.
  FaultInjector inj;
  inj.AttachScheduler(rig.tb->sched());
  inj.SetTearGranularity(rig.tb->db_dev()->id(), TearGranularity::kPageAtomic);
  rig.tb->db_dev()->set_fault_injector(&inj);
  rig.tb->log_dev()->set_fault_injector(&inj);
  rig.tb->flash_dev()->set_fault_injector(&inj);
  // The first write a checkpoint issues necessarily happens after BEGIN was
  // appended and before the control block could name it.
  inj.ArmAfterWrites(1, /*seed=*/99);

  const Status mid = rig.tb->db()->TakeCheckpoint().status();
  ASSERT_FALSE(mid.ok()) << "checkpoint should have been cut by the crash";
  ASSERT_TRUE(inj.tripped()) << mid.ToString();

  FACE_ASSERT_OK(rig.tb->Crash());
  inj.Disarm();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, rig.tb->Recover());
  EXPECT_EQ(report.checkpoint_lsn, complete_ckpt)
      << "restart must use the previous complete checkpoint";

  FACE_ASSERT_OK_AND_ASSIGN(workload::AuditReport audit, rig.Check());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  // And the recovered system keeps working.
  FACE_ASSERT_OK(rig.RunOps(40));
}

class EngineCheckpointCrashTest : public EngineFixture {
 protected:
  void SetUp() override { Init(/*db_pages=*/4096, /*buffer_frames=*/32); }

  void CommitWrite(PageId page_id, uint16_t offset, const std::string& data) {
    const TxnId txn = db_->Begin();
    auto page = db_->pool()->FetchPage(page_id);
    ASSERT_TRUE(page.ok());
    FACE_ASSERT_OK(db_->txns()->Update(txn, &page.value(), offset,
                                       data.data(),
                                       static_cast<uint32_t>(data.size())));
    FACE_ASSERT_OK(db_->Commit(txn));
  }
};

TEST_F(EngineCheckpointCrashTest, ControlBlockAdvancesOnlyAfterTheSync) {
  std::vector<PageId> pages;
  for (int i = 0; i < 5; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->NewPage());
    pages.push_back(p.page_id());
  }
  for (PageId p : pages) CommitWrite(p, kPageHeaderSize, "before-ck1");
  FACE_ASSERT_OK_AND_ASSIGN(Lsn ckpt1, db_->TakeCheckpoint());
  for (PageId p : pages) CommitWrite(p, kPageHeaderSize + 16, "after-ck1!");

  FaultInjector inj;
  db_dev_->set_fault_injector(&inj);
  log_dev_->set_fault_injector(&inj);
  inj.SetTearGranularity("db", TearGranularity::kPageAtomic);
  inj.ArmAfterWrites(3, /*seed=*/7);

  ASSERT_FALSE(db_->TakeCheckpoint().ok());
  ASSERT_TRUE(inj.tripped());
  inj.Disarm();

  // The incomplete checkpoint never reached the control block.
  FACE_ASSERT_OK_AND_ASSIGN(Lsn recorded, log_->ReadControlBlock());
  EXPECT_EQ(recorded, ckpt1);

  // Restart: recovery must start from ckpt1 and restore all commits.
  db_.reset();
  cache_.reset();
  log_.reset();
  storage_.reset();
  storage_ = std::make_unique<DbStorage>(db_dev_.get());
  log_ = std::make_unique<LogManager>(log_dev_.get());
  cache_ = std::make_unique<NullCache>(storage_.get());
  DatabaseOptions opts;
  opts.buffer_frames = 32;
  db_ = std::make_unique<Database>(opts, storage_.get(), log_.get(),
                                   cache_.get());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, db_->Recover());
  EXPECT_EQ(report.checkpoint_lsn, ckpt1);

  for (PageId p : pages) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->FetchPage(p));
    EXPECT_EQ(std::string(page.data() + kPageHeaderSize, 10), "before-ck1");
    EXPECT_EQ(std::string(page.data() + kPageHeaderSize + 16, 10),
              "after-ck1!");
  }
}

}  // namespace
}  // namespace face
