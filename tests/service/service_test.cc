// End-to-end tests of the MatchService scheduler: admission overflow,
// priority ordering, cancellation mid-search, deadlines that expire before
// and during a run, streaming, shutdown semantics, and metrics accounting.
#include "service/match_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "daf/engine.h"
#include "service/job_state.h"
#include "tests/test_util.h"

namespace daf::service {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeClique;
using daf::testing::MakePath;

// Clique-in-clique searches used throughout: easy ones finish instantly,
// the hard one has ~10^10 embeddings and never finishes un-stopped.
Graph SmallData() { return MakeClique(std::vector<Label>(8, 0)); }
Graph SmallQuery() { return MakeClique(std::vector<Label>(3, 0)); }
Graph HardData() { return MakeClique(std::vector<Label>(32, 0)); }
Graph HardQuery() { return MakeClique(std::vector<Label>(7, 0)); }

// A streaming job with more embeddings than the stream buffer holds
// (12*11*10 = 1320 > kBufferCapacity): the worker blocks on backpressure
// until the consumer drains or closes, pinning one worker deterministically.
JobHandle SubmitBlocker(MatchService& service) {
  QueryJob job;
  job.query = SmallQuery();
  job.stream_embeddings = true;
  return service.Submit(std::move(job));
}

Graph BlockerData() { return MakeClique(std::vector<Label>(12, 0)); }

void WaitForStatus(const JobHandle& handle, JobStatus want) {
  for (int i = 0; i < 10000 && handle.Status() != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(handle.Status(), want);
}

TEST(MatchServiceTest, CompletedJobMatchesDirectEngineRun) {
  Graph data = SmallData();
  MatchResult expected = DafMatch(SmallQuery(), data);
  ASSERT_TRUE(expected.Complete());

  MatchService service(data, {.num_workers = 2});
  QueryJob job;
  job.query = SmallQuery();
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
  const MatchResult& result = handle.Result();
  EXPECT_TRUE(result.Complete());
  EXPECT_EQ(result.embeddings, expected.embeddings);
  // The per-job profile was collected (search-tree nodes were recorded).
  EXPECT_GT(handle.Profile().backtrack.HistogramTotal(), 0u);
  EXPECT_GT(handle.start_seq(), 0u);
}

TEST(MatchServiceTest, IntraQueryParallelismForInteractiveJobs) {
  Graph data = SmallData();
  MatchResult expected = DafMatch(SmallQuery(), data);
  ASSERT_TRUE(expected.Complete());

  MatchService service(data,
                       {.num_workers = 1, .intra_query_threads = 4});
  // Interactive, non-streaming -> the work-stealing parallel engine.
  QueryJob interactive;
  interactive.query = SmallQuery();
  interactive.priority = Priority::kInteractive;
  JobHandle par_handle = service.Submit(std::move(interactive));
  EXPECT_EQ(par_handle.Wait(), JobStatus::kDone);
  EXPECT_EQ(par_handle.Result().embeddings, expected.embeddings);
  EXPECT_EQ(par_handle.Profile().threads, 4u);

  // Normal priority stays on the single-threaded engine.
  QueryJob batch;
  batch.query = SmallQuery();
  batch.priority = Priority::kNormal;
  JobHandle seq_handle = service.Submit(std::move(batch));
  EXPECT_EQ(seq_handle.Wait(), JobStatus::kDone);
  EXPECT_EQ(seq_handle.Result().embeddings, expected.embeddings);
  EXPECT_EQ(seq_handle.Profile().threads, 1u);

  service.Drain();  // Wait() returns before the metrics bookkeeping lands
  auto metrics = service.Metrics();
  EXPECT_EQ(metrics.counters.parallel_jobs, 1u);
  EXPECT_EQ(metrics.counters.completed, 2u);
}

TEST(MatchServiceTest, IntraQueryParallelLimitStaysExact) {
  MatchService service(BlockerData(),
                       {.num_workers = 1, .intra_query_threads = 4});
  QueryJob job;
  job.query = SmallQuery();  // 12*11*10 = 1320 embeddings
  job.priority = Priority::kInteractive;
  job.limit = 100;
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
  EXPECT_TRUE(handle.Result().limit_reached);
  EXPECT_EQ(handle.Result().embeddings, 100u);
}

TEST(MatchServiceTest, StreamedEmbeddingsEqualTheDirectSet) {
  Graph data = SmallData();
  EmbeddingSet expected;
  MatchOptions collect;
  collect.callback = Collector(&expected);
  DafMatch(SmallQuery(), data, collect);
  ASSERT_FALSE(expected.empty());

  MatchService service(data, {.num_workers = 2});
  QueryJob job;
  job.query = SmallQuery();
  job.stream_embeddings = true;
  JobHandle handle = service.Submit(std::move(job));
  EmbeddingSet streamed;
  for (;;) {
    std::vector<std::vector<VertexId>> batch = handle.NextBatch(64);
    if (batch.empty()) break;  // terminal + drained = end of stream
    for (std::vector<VertexId>& e : batch) streamed.insert(std::move(e));
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
  EXPECT_EQ(handle.Result().embeddings, expected.size());
}

// Threads of this process: one /proc/self/task entry each.
size_t ProcessThreadCount() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(MatchServiceTest, StreamingJobRunsOnItsWorkerThread) {
  MatchService service(BlockerData(), {.num_workers = 1});
  const size_t idle_threads = ProcessThreadCount();
  JobHandle handle = SubmitBlocker(service);
  WaitForStatus(handle, JobStatus::kRunning);
  // Give the search time to fill the stream buffer and park on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(ProcessThreadCount(), idle_threads);
  // The search really was parked: the buffer holds exactly its capacity.
  constexpr size_t kCapacity = internal::JobState::kBufferCapacity;
  EXPECT_EQ(handle.TryNextBatch(kCapacity + 1).size(), kCapacity);
  handle.CloseStream();
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
}

TEST(MatchServiceTest, QueueOverflowRejectsInsteadOfBlocking) {
  MatchService service(BlockerData(),
                       {.num_workers = 1, .queue_capacity = 1});
  JobHandle blocker = SubmitBlocker(service);
  WaitForStatus(blocker, JobStatus::kRunning);

  QueryJob queued;
  queued.query = SmallQuery();
  JobHandle waiting = service.Submit(std::move(queued));
  EXPECT_EQ(waiting.Status(), JobStatus::kQueued);

  QueryJob overflow;
  overflow.query = SmallQuery();
  JobHandle rejected = service.Submit(std::move(overflow));
  EXPECT_EQ(rejected.Status(), JobStatus::kRejected);
  EXPECT_TRUE(rejected.Done());
  EXPECT_FALSE(rejected.Result().ok);

  blocker.CloseStream();
  EXPECT_EQ(waiting.Wait(), JobStatus::kDone);
  service.Drain();
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.counters.rejected, 1u);
  EXPECT_EQ(m.counters.submitted, 3u);
}

TEST(MatchServiceTest, StrictPriorityOrderingUnderABusyWorker) {
  MatchService service(BlockerData(), {.num_workers = 1});
  JobHandle blocker = SubmitBlocker(service);
  WaitForStatus(blocker, JobStatus::kRunning);

  auto submit = [&](Priority p) {
    QueryJob job;
    job.query = SmallQuery();
    job.priority = p;
    return service.Submit(std::move(job));
  };
  // Submitted in inverse priority order while the only worker is pinned.
  JobHandle batch = submit(Priority::kBatch);
  JobHandle normal = submit(Priority::kNormal);
  JobHandle interactive = submit(Priority::kInteractive);

  blocker.CloseStream();
  service.Drain();
  EXPECT_EQ(interactive.Status(), JobStatus::kDone);
  EXPECT_EQ(normal.Status(), JobStatus::kDone);
  EXPECT_EQ(batch.Status(), JobStatus::kDone);
  // Pickup order follows the lanes, not submission order.
  EXPECT_LT(interactive.start_seq(), normal.start_seq());
  EXPECT_LT(normal.start_seq(), batch.start_seq());
}

TEST(MatchServiceTest, CancelStopsARunningHardQuery) {
  MatchService service(HardData(), {.num_workers = 1});
  QueryJob job;
  job.query = HardQuery();
  JobHandle handle = service.Submit(std::move(job));
  WaitForStatus(handle, JobStatus::kRunning);
  handle.Cancel();
  EXPECT_EQ(handle.Wait(), JobStatus::kCancelled);
  const MatchResult& result = handle.Result();
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.Complete());
  EXPECT_TRUE(result.cancelled);
}

TEST(MatchServiceTest, CancelWhileQueuedNeverRuns) {
  MatchService service(BlockerData(), {.num_workers = 1});
  JobHandle blocker = SubmitBlocker(service);
  WaitForStatus(blocker, JobStatus::kRunning);
  QueryJob job;
  job.query = SmallQuery();
  JobHandle queued = service.Submit(std::move(job));
  queued.Cancel();
  blocker.CloseStream();
  EXPECT_EQ(queued.Wait(), JobStatus::kCancelled);
  EXPECT_TRUE(queued.Result().cancelled);
  EXPECT_EQ(queued.Result().embeddings, 0u);
}

TEST(MatchServiceTest, CancelAfterCompletionKeepsDone) {
  MatchService service(SmallData(), {.num_workers = 1});
  QueryJob job;
  job.query = SmallQuery();
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
  handle.Cancel();  // too late: cancellation never un-completes work
  EXPECT_EQ(handle.Status(), JobStatus::kDone);
  EXPECT_TRUE(handle.Result().Complete());
}

TEST(MatchServiceTest, DeadlineExpiringInQueueTimesOutWithoutRunning) {
  MatchService service(BlockerData(), {.num_workers = 1});
  JobHandle blocker = SubmitBlocker(service);
  WaitForStatus(blocker, JobStatus::kRunning);
  QueryJob job;
  job.query = SmallQuery();
  job.deadline_ms = 1;  // burns off while stuck behind the blocker
  JobHandle handle = service.Submit(std::move(job));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  blocker.CloseStream();
  EXPECT_EQ(handle.Wait(), JobStatus::kTimedOut);
  EXPECT_TRUE(handle.Result().timed_out);
  EXPECT_EQ(handle.Result().embeddings, 0u);
}

TEST(MatchServiceTest, DeadlineCutsOffARunningHardQuery) {
  // The deadline fires mid-run — during CS build or search — on a query
  // that would otherwise never finish.
  MatchService service(HardData(), {.num_workers = 1});
  QueryJob job;
  job.query = HardQuery();
  job.deadline_ms = 30;
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Wait(), JobStatus::kTimedOut);
  EXPECT_TRUE(handle.Result().timed_out);
  EXPECT_FALSE(handle.Result().Complete());
}

TEST(MatchServiceTest, JobLimitOverridesAndReportsLimitReached) {
  MatchService service(SmallData(), {.num_workers = 1});
  QueryJob job;
  job.query = SmallQuery();
  job.limit = 5;
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);  // a limit hit is a success
  EXPECT_TRUE(handle.Result().limit_reached);
  EXPECT_EQ(handle.Result().embeddings, 5u);
}

TEST(MatchServiceTest, ReservedOptionChannelsFailTheJob) {
  MatchService service(SmallData(), {.num_workers = 1});
  QueryJob job;
  job.query = SmallQuery();
  job.options.callback = [](std::span<const VertexId>) { return true; };
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Status(), JobStatus::kFailed);
  EXPECT_FALSE(handle.Result().ok);
}

TEST(MatchServiceTest, ShutdownCancelsQueuedAndRunningJobs) {
  MatchService service(BlockerData(), {.num_workers = 1});
  JobHandle blocker = SubmitBlocker(service);
  WaitForStatus(blocker, JobStatus::kRunning);
  QueryJob job;
  job.query = SmallQuery();
  JobHandle queued = service.Submit(std::move(job));
  service.Shutdown();
  EXPECT_EQ(queued.Status(), JobStatus::kCancelled);
  EXPECT_TRUE(queued.Result().cancelled);
  EXPECT_EQ(blocker.Wait(), JobStatus::kCancelled);
  // Handles stay readable after shutdown (state is shared, not borrowed).
  EXPECT_FALSE(blocker.Result().Complete());
}

TEST(MatchServiceTest, SubmitAfterShutdownIsRejected) {
  MatchService service(SmallData(), {.num_workers = 1});
  service.Shutdown();
  QueryJob job;
  job.query = SmallQuery();
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Status(), JobStatus::kRejected);
  EXPECT_FALSE(handle.Result().ok);
}

TEST(MatchServiceTest, DrainWaitsForAllAdmittedJobs) {
  MatchService service(SmallData(), {.num_workers = 4});
  std::vector<JobHandle> handles;
  for (int i = 0; i < 32; ++i) {
    QueryJob job;
    job.query = SmallQuery();
    handles.push_back(service.Submit(std::move(job)));
  }
  service.Drain();
  for (const JobHandle& h : handles) {
    EXPECT_EQ(h.Status(), JobStatus::kDone);
  }
  EXPECT_EQ(service.QueueDepth(), 0u);
}

TEST(MatchServiceTest, MetricsAccountForEveryJob) {
  MatchService service(SmallData(), {.num_workers = 2});
  const MatchResult direct = DafMatch(SmallQuery(), SmallData());
  for (int i = 0; i < 10; ++i) {
    QueryJob job;
    job.query = SmallQuery();
    service.Submit(std::move(job));
  }
  service.Drain();
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.counters.submitted, 10u);
  EXPECT_EQ(m.counters.completed, 10u);
  EXPECT_EQ(m.counters.rejected + m.counters.cancelled +
                m.counters.timed_out + m.counters.failed,
            0u);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.running, 0u);
  EXPECT_EQ(m.workers, 2u);
  EXPECT_EQ(m.wait.count(), 10u);
  EXPECT_EQ(m.run.count(), 10u);
  EXPECT_EQ(m.total.count(), 10u);
  EXPECT_GE(m.total.max_ms(), m.run.min_ms());
  (void)direct;
  std::string json = obs::ServiceMetricsToJson(m);
  EXPECT_NE(json.find("\"completed\": 10"), std::string::npos) << json;
}

TEST(MatchServiceTest, ProfilesCanBeDisabled) {
  MatchService service(SmallData(),
                       {.num_workers = 1, .collect_profiles = false});
  QueryJob job;
  job.query = SmallQuery();
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
  EXPECT_EQ(handle.Profile().backtrack.HistogramTotal(), 0u);
}

TEST(MatchServiceTest, ManyMixedJobsAllResolveCorrectly) {
  Graph data = SmallData();
  const MatchResult direct = DafMatch(SmallQuery(), data);
  const MatchResult direct_path = DafMatch(MakePath({0, 0}), data);
  MatchService service(data, {.num_workers = 4});
  std::vector<JobHandle> clique_jobs;
  std::vector<JobHandle> path_jobs;
  for (int i = 0; i < 24; ++i) {
    QueryJob job;
    job.priority = static_cast<Priority>(i % kNumPriorities);
    if (i % 2 == 0) {
      job.query = SmallQuery();
      clique_jobs.push_back(service.Submit(std::move(job)));
    } else {
      job.query = MakePath({0, 0});
      path_jobs.push_back(service.Submit(std::move(job)));
    }
  }
  service.Drain();
  for (JobHandle& h : clique_jobs) {
    EXPECT_EQ(h.Status(), JobStatus::kDone);
    EXPECT_EQ(h.Result().embeddings, direct.embeddings);
  }
  for (JobHandle& h : path_jobs) {
    EXPECT_EQ(h.Status(), JobStatus::kDone);
    EXPECT_EQ(h.Result().embeddings, direct_path.embeddings);
  }
}

}  // namespace
}  // namespace daf::service
