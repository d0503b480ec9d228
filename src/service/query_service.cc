#include "service/query_service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <utility>

#include "common/parallel.h"
#include "common/str_util.h"
#include "plan/router.h"
#include "service/session.h"

namespace hippo::service {

namespace {

/// Statement census of a ';'-separated script: the (cheap, upper-bound)
/// statement count that routes a commit to the bulk re-detect path, plus
/// whether any statement is DDL (CREATE/DROP) — DDL changes the constraint
/// set or the schema, so the hypergraph must be rebuilt and the commit is
/// classified into the re-detect group class.
struct ScriptClass {
  size_t statements = 0;
  bool ddl = false;
};

ScriptClass ClassifyScript(const std::string& sql) {
  ScriptClass c;
  size_t pos = 0;
  while (pos <= sql.size()) {
    size_t end = sql.find(';', pos);
    size_t len = (end == std::string::npos ? sql.size() : end) - pos;
    // First keyword of the statement (skip whitespace and parens).
    size_t s = sql.find_first_not_of(" \t\n\r(", pos);
    if (s != std::string::npos && s < pos + len) {
      ++c.statements;
      size_t e = s;
      while (e < pos + len &&
             !std::isspace(static_cast<unsigned char>(sql[e])) &&
             sql[e] != '(') {
        ++e;
      }
      std::string word = sql.substr(s, e - s);
      if (EqualsIgnoreCase(word, "create") ||
          EqualsIgnoreCase(word, "drop")) {
        c.ddl = true;
      }
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return c;
}

void MergeHippoStats(const cqa::HippoStats& from, cqa::HippoStats* into) {
  into->candidates += from.candidates;
  into->answers += from.answers;
  into->filtered_shortcuts += from.filtered_shortcuts;
  into->constant_formulas += from.constant_formulas;
  into->prover_invocations += from.prover_invocations;
  into->clauses_checked += from.clauses_checked;
  into->membership_checks += from.membership_checks;
  into->edge_choices_tried += from.edge_choices_tried;
  into->envelope_seconds += from.envelope_seconds;
  into->prove_seconds += from.prove_seconds;
  into->total_seconds += from.total_seconds;
  into->route = from.route;  // most recent request's route
  into->routed_conflict_free += from.routed_conflict_free;
  into->routed_rewrite += from.routed_rewrite;
  into->routed_prover += from.routed_prover;
  into->conflict_free_route_seconds += from.conflict_free_route_seconds;
  into->rewrite_route_seconds += from.rewrite_route_seconds;
  into->prover_route_seconds += from.prover_route_seconds;
  into->detect_options_ignored += from.detect_options_ignored;
}

/// Wall seconds since `from`.
double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double SecondsSince(std::chrono::steady_clock::time_point from) {
  return SecondsBetween(from, std::chrono::steady_clock::now());
}

}  // namespace

EffectiveOptions EffectiveOptions::Resolve(const ServiceOptions& options) {
  EffectiveOptions eff;
  const bool unified = options.threads != ServiceOptions::kPerFieldThreads;
  eff.pool_workers =
      ResolveThreadCount(unified ? options.threads : options.num_workers);
  eff.detect = options.detect;
  if (unified) eff.detect.num_threads = options.threads;
  if (unified) eff.hippo.num_threads = options.threads;
  return eff;
}

QueryService::QueryService(ServiceOptions options)
    : options_(options),
      write_ring_(options.write_queue_depth == 0 ? 1
                                                 : options.write_queue_depth) {
  EffectiveOptions eff = EffectiveOptions::Resolve(options_);
  options_.num_workers = eff.pool_workers;
  options_.detect = eff.detect;
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
  if (options_.max_group_commits == 0) options_.max_group_commits = 1;
  InitMetrics();
  // Commit-path re-detections (bulk commits, constraint DDL) use the
  // configured detect options; the incremental maintainer handles the rest.
  master_ = std::make_unique<Database>();
  master_->SetDetectOptions(options_.detect);
  Status st = master_->EnableIncrementalMaintenance();
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    st = Publish();  // epoch 0: the empty instance
  }
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  pipeline_ = std::thread([this] { CommitPipelineLoop(); });
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::InitMetrics() {
  if (!options_.enable_metrics) return;
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  obs::MetricsRegistry* r = metrics_.get();
  m_commits_ = r->GetCounter("hippo_commits_total");
  m_queries_ = r->GetCounter("hippo_queries_total");
  m_rejected_ = r->GetCounter("hippo_queries_rejected_total");
  // Whether a slow commit scanned: DELETE/UPDATE row-index probes and the
  // rows they (or the scans) examined.
  m_dml_probes_ = r->GetCounter("hippo_dml_index_probes_total");
  m_dml_examined_ = r->GetCounter("hippo_dml_rows_examined_total");
  // Historical key name; since the exclusive commit mutex became the
  // admission ring, this records the ring wait (admission -> apply start).
  m_commit_lock_wait_ = r->GetHistogram("hippo_commit_lock_wait_seconds");
  m_commit_apply_ = r->GetHistogram("hippo_commit_apply_seconds");
  m_detect_incremental_ = r->GetHistogram(obs::MetricsRegistry::Labeled(
      "hippo_commit_detect_seconds", {{"kind", "incremental"}}));
  m_detect_redetect_ = r->GetHistogram(obs::MetricsRegistry::Labeled(
      "hippo_commit_detect_seconds", {{"kind", "redetect"}}));
  m_commit_replay_ = r->GetHistogram("hippo_commit_replay_seconds");
  m_commit_publish_ = r->GetHistogram("hippo_commit_publish_seconds");
  m_batch_statements_ = r->GetHistogram("hippo_commit_batch_statements");
  m_group_size_ = r->GetHistogram("hippo_commit_group_size");
  m_admission_wait_ = r->GetHistogram("hippo_admission_wait_seconds");
  m_queue_wait_ = r->GetHistogram("hippo_queue_wait_seconds");
  m_queue_depth_ = r->GetGauge("hippo_queue_depth");
  m_epoch_ = r->GetGauge("hippo_epoch");
  m_route_cf_ = r->GetHistogram(obs::MetricsRegistry::Labeled(
      "hippo_query_seconds", {{"route", "conflict_free"}}));
  m_route_rewrite_ = r->GetHistogram(obs::MetricsRegistry::Labeled(
      "hippo_query_seconds", {{"route", "rewrite"}}));
  m_route_prover_ = r->GetHistogram(obs::MetricsRegistry::Labeled(
      "hippo_query_seconds", {{"route", "prover"}}));
  m_plain_latency_ = r->GetHistogram(obs::MetricsRegistry::Labeled(
      "hippo_query_seconds", {{"route", "plain"}}));
  m_core_latency_ = r->GetHistogram(obs::MetricsRegistry::Labeled(
      "hippo_query_seconds", {{"route", "core"}}));
}

void QueryService::RecordDml(const Database& db, const DmlStats& before) {
  if (m_dml_probes_ == nullptr) return;
  const DmlStats& after = db.dml_stats();
  m_dml_probes_->Add(after.index_probes - before.index_probes);
  m_dml_examined_->Add(after.rows_examined - before.rows_examined);
}

// --- write path: admission --------------------------------------------------

void QueryService::Reject(CommitRequest* req, Status why) {
  CommitReceipt r;
  r.status = std::move(why);
  req->done.set_value(std::move(r));
}

std::future<CommitReceipt> QueryService::CommitAsync(std::string sql) {
  CommitRequest req;
  ScriptClass cls = ClassifyScript(sql);
  req.statements = cls.statements;
  req.redetect =
      cls.ddl || cls.statements >= options_.bulk_redetect_statements;
  req.sql = std::move(sql);
  std::future<CommitReceipt> fut = req.done.get_future();
  req.admitted = std::chrono::steady_clock::now();
  {
    // The admission gate: a short critical section that makes the
    // stopping check and the ring push atomic, so a request can never be
    // admitted after the pipeline has drained and exited. The ring's cell
    // protocol keeps the pop side lock-free.
    std::unique_lock<std::mutex> lock(pipeline_mu_);
    for (;;) {
      if (commits_stopping_) {
        lock.unlock();
        Reject(&req,
               Status::ResourceExhausted("query service is shut down"));
        return fut;
      }
      if (write_ring_.TryPush(&req, &req.sequence)) break;
      if (options_.reject_writes_when_full) {
        lock.unlock();
        Reject(&req, Status::ResourceExhausted(
                         StrFormat("commit ring full (depth %zu)",
                                   write_ring_.capacity())));
        return fut;
      }
      // Backpressure: wait for the pipeline to free a slot. Timed only
      // when it actually blocks.
      auto wait_start = std::chrono::steady_clock::now();
      write_space_cv_.wait(lock, [this] {
        return commits_stopping_ || write_ring_.CanPush();
      });
      if (m_admission_wait_ != nullptr) {
        m_admission_wait_->Record(SecondsSince(wait_start));
      }
    }
  }
  pipeline_cv_.notify_all();
  return fut;
}

std::vector<std::future<CommitReceipt>> QueryService::CommitMany(
    std::vector<std::string> scripts) {
  std::vector<std::future<CommitReceipt>> futures;
  futures.reserve(scripts.size());
  for (std::string& sql : scripts) {
    futures.push_back(CommitAsync(std::move(sql)));
  }
  return futures;
}

Status QueryService::Commit(const std::string& sql) {
  return CommitAsync(sql).get().status;
}

Status QueryService::WithMaster(const std::function<Status(Database&)>& fn,
                                bool publish) {
  std::unique_lock<std::mutex> lock(master_mu_);
  // Outside any async round: a mutation applied mid-round would be lost
  // when the fork swaps in (only ring commits are replayed).
  master_cv_.wait(lock, [this] { return !round_in_flight_; });
  Status st = fn(*master_);
  if (!master_->hypergraph_current()) {
    Status restored = master_->EnableIncrementalMaintenance();
    if (st.ok()) st = restored;
  }
  if (publish) {
    Status published = Publish();
    if (st.ok()) st = published;
  }
  return st;
}

// --- write path: the pipeline thread ----------------------------------------

void QueryService::CommitPipelineLoop() {
  // Requests popped off the ring but not yet processed: the head of this
  // deque is the oldest admitted commit. Bounded by 2 * max_group_commits
  // so ring backpressure still reaches producers.
  std::deque<CommitRequest> pending;
  const size_t refill_cap = 2 * options_.max_group_commits;
  for (;;) {
    bool finish_round = false;
    {
      std::unique_lock<std::mutex> lock(pipeline_mu_);
      pipeline_cv_.wait(lock, [&] {
        if (round_in_flight_ && detect_done_) return true;
        if (commits_stopping_ && !round_in_flight_) return true;
        // A redetect-class head must wait for the in-flight round (FIFO:
        // everything behind it stays queued too).
        if (round_in_flight_ && !pending.empty() &&
            pending.front().redetect) {
          return false;
        }
        return !pending.empty() || write_ring_.CanPop();
      });
      finish_round = round_in_flight_ && detect_done_;
    }
    if (finish_round) {
      FinishAsyncRound();
      continue;
    }
    {
      CommitRequest req;
      bool popped = false;
      while (pending.size() < refill_cap && write_ring_.TryPop(&req)) {
        pending.push_back(std::move(req));
        popped = true;
      }
      if (popped) write_space_cv_.notify_all();
    }
    if (pending.empty()) {
      std::lock_guard<std::mutex> lock(pipeline_mu_);
      // Drained and stopping: no producer can slip in a late push — the
      // admission gate re-checks commits_stopping_ under this mutex.
      if (commits_stopping_ && !round_in_flight_ &&
          !write_ring_.CanPop()) {
        return;
      }
      continue;
    }
    const bool redetect_class = pending.front().redetect;
    if (redetect_class && round_in_flight_) continue;  // wait for the round
    std::vector<CommitRequest> group;
    while (!pending.empty() &&
           pending.front().redetect == redetect_class &&
           group.size() < options_.max_group_commits) {
      group.push_back(std::move(pending.front()));
      pending.pop_front();
    }
    if (!redetect_class) {
      ProcessSmallGroup(std::move(group));
    } else if (options_.async_bulk_redetect) {
      StartAsyncRound(std::move(group));
    } else {
      ProcessSyncRedetect(std::move(group));
    }
  }
}

void QueryService::ResolveGroup(std::vector<CommitRequest>* group,
                                Status published, const SnapshotPtr& snap,
                                const CommitPhases& shared) {
  const uint64_t epoch = snap != nullptr ? snap->epoch() : 0;
  const size_t group_size = group->size();
  // Stats and metrics first, receipts last: a writer returning from
  // .get() must already see its own commit in stats().
  if (m_commits_ != nullptr) {
    for (const CommitRequest& req : *group) {
      m_commits_->Add(1);
      m_commit_lock_wait_->Record(req.queue_seconds);
      m_batch_statements_->Record(double(req.statements));
    }
    m_commit_apply_->Record(shared.apply_seconds);
    m_group_size_->Record(double(group_size));
    if (shared.redetected) {
      m_detect_redetect_->Record(shared.detect_seconds);
      if (shared.replay_seconds > 0) {
        m_commit_replay_->Record(shared.replay_seconds);
      }
    } else {
      // Incremental path: maintenance runs per-statement inside Execute,
      // so the apply phase IS the incremental detection time.
      m_detect_incremental_->Record(shared.apply_seconds);
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.commits += group_size;
    if (shared.redetected) {
      stats_.bulk_redetects += group_size;
    } else {
      stats_.incremental_commits += group_size;
    }
    ++stats_.commit_groups;
    stats_.max_group_size = std::max(stats_.max_group_size, group_size);
  }
  for (CommitRequest& req : *group) {
    CommitReceipt r;
    // The script's own error dominates; detect/publish errors surface
    // otherwise (readers keep the previous epoch when publication failed).
    r.status = !req.applied.ok() ? req.applied : published;
    r.sequence = req.sequence;
    r.epoch = epoch;
    r.group_size = group_size;
    r.snapshot = snap;
    r.phases = shared;
    r.phases.queue_seconds = req.queue_seconds;
    req.done.set_value(std::move(r));
  }
}

void QueryService::ProcessSmallGroup(std::vector<CommitRequest> group) {
  CommitPhases shared;
  SnapshotPtr snap;
  Status published;
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    const DmlStats dml_before = master_->dml_stats();
    auto apply_start = std::chrono::steady_clock::now();
    for (CommitRequest& req : group) {
      req.queue_seconds = SecondsBetween(req.admitted, apply_start);
      req.applied = master_->Execute(req.sql);
    }
    shared.apply_seconds = SecondsSince(apply_start);
    RecordDml(*master_, dml_before);
    if (!master_->hypergraph_current()) {
      // Defense in depth: a statement classified as plain DML invalidated
      // the graph anyway (e.g. DDL the classifier missed). Restore the
      // maintained-graph invariant with a full re-detection before
      // publishing.
      auto detect_start = std::chrono::steady_clock::now();
      Status restored = master_->EnableIncrementalMaintenance();
      shared.detect_seconds = SecondsSince(detect_start);
      shared.redetected = true;
      if (!restored.ok()) {
        published = restored;
      }
    }
    if (round_in_flight_) {
      // The async round will replay these scripts onto the fork so the
      // swapped-in lineage contains them too (the replay rule).
      for (const CommitRequest& req : group) {
        replay_log_.push_back(req.sql);
      }
    }
    if (published.ok()) {
      auto publish_start = std::chrono::steady_clock::now();
      published = Publish(&snap);
      shared.publish_seconds = SecondsSince(publish_start);
    }
  }
  ResolveGroup(&group, published, snap, shared);
}

void QueryService::ProcessSyncRedetect(std::vector<CommitRequest> group) {
  CommitPhases shared;
  shared.redetected = true;
  SnapshotPtr snap;
  Status published;
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    // Large delta / DDL: per-row incremental maintenance would pay a
    // hash-probe per statement; one full (parallel) detection pass is
    // cheaper. Drop the maintainer up front so DML only invalidates.
    master_->DisableIncrementalMaintenance();
    master_->InvalidateHypergraph();
    const DmlStats dml_before = master_->dml_stats();
    auto apply_start = std::chrono::steady_clock::now();
    for (CommitRequest& req : group) {
      req.queue_seconds = SecondsBetween(req.admitted, apply_start);
      req.applied = master_->Execute(req.sql);
    }
    shared.apply_seconds = SecondsSince(apply_start);
    RecordDml(*master_, dml_before);
    auto detect_start = std::chrono::steady_clock::now();
    Status restored = master_->EnableIncrementalMaintenance();
    shared.detect_seconds = SecondsSince(detect_start);
    if (restored.ok()) {
      auto publish_start = std::chrono::steady_clock::now();
      published = Publish(&snap);
      shared.publish_seconds = SecondsSince(publish_start);
    } else {
      published = restored;
    }
  }
  ResolveGroup(&group, published, snap, shared);
}

void QueryService::StartAsyncRound(std::vector<CommitRequest> group) {
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    fork_ = master_->ForkShared();
    round_in_flight_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(pipeline_mu_);
    detect_done_ = false;
  }
  round_group_ = std::move(group);
  replay_log_.clear();
  if (detect_thread_.joinable()) detect_thread_.join();
  // The background half of the round: apply the bulk/DDL scripts to the
  // private fork, then bring its hypergraph up (a fresh, typically
  // parallel DetectAll + maintainer build). The master lineage keeps
  // serving small groups on the pipeline thread meanwhile.
  detect_thread_ = std::thread([this] {
    auto apply_start = std::chrono::steady_clock::now();
    for (CommitRequest& req : round_group_) {
      req.queue_seconds = SecondsBetween(req.admitted, apply_start);
      req.applied = fork_->Execute(req.sql);
    }
    double apply_seconds = SecondsSince(apply_start);
    RecordDml(*fork_, DmlStats());  // a fork starts from zero
    auto detect_start = std::chrono::steady_clock::now();
    Status st = fork_->EnableIncrementalMaintenance();
    double detect_seconds = SecondsSince(detect_start);
    {
      std::lock_guard<std::mutex> lock(pipeline_mu_);
      round_apply_seconds_ = apply_seconds;
      round_detect_seconds_ = detect_seconds;
      detect_status_ = st;
      detect_done_ = true;
    }
    pipeline_cv_.notify_all();
  });
}

void QueryService::FinishAsyncRound() {
  detect_thread_.join();
  CommitPhases shared;
  shared.redetected = true;
  Status detect_st;
  {
    std::lock_guard<std::mutex> lock(pipeline_mu_);
    detect_st = detect_status_;
    shared.apply_seconds = round_apply_seconds_;
    shared.detect_seconds = round_detect_seconds_;
    detect_done_ = false;
  }
  SnapshotPtr snap;
  Status published;
  const size_t replayed = replay_log_.size();
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    if (detect_st.ok()) {
      // The replay rule: small commits that published on the master
      // lineage while detection ran are re-executed on the fork, in
      // admission order, through the fork's live incremental maintainer.
      // Statement outcomes may differ from the master application (they
      // now see the bulk's effects — serial semantics); the receipts
      // already reported the master-lineage status.
      const DmlStats dml_before = fork_->dml_stats();
      auto replay_start = std::chrono::steady_clock::now();
      for (const std::string& sql : replay_log_) {
        (void)fork_->Execute(sql);
      }
      shared.replay_seconds = SecondsSince(replay_start);
      RecordDml(*fork_, dml_before);
      if (!fork_->hypergraph_current()) {
        // A replayed script invalidated the fork's graph (hidden DDL that
        // the small-path fallback also re-detected on the master).
        Status restored = fork_->EnableIncrementalMaintenance();
        if (!restored.ok()) detect_st = restored;
      }
    }
    if (detect_st.ok()) {
      // The epoch swap is a pointer swap: the fork becomes the master;
      // the old master's tables live on inside published snapshots.
      master_ = std::move(fork_);
      auto publish_start = std::chrono::steady_clock::now();
      published = Publish(&snap);
      shared.publish_seconds = SecondsSince(publish_start);
    } else {
      // Detection failed (e.g. invalid DetectOptions): the master never
      // saw the bulk, its lineage stays consistent; the round's commits
      // report the error and are NOT applied.
      fork_.reset();
      published = detect_st;
    }
    round_in_flight_ = false;
  }
  master_cv_.notify_all();
  std::vector<CommitRequest> group = std::move(round_group_);
  round_group_.clear();
  replay_log_.clear();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.async_redetects;
    stats_.replayed_commits += replayed;
  }
  ResolveGroup(&group, published, snap, shared);
}

Status QueryService::Publish(SnapshotPtr* out) {
  auto t0 = std::chrono::steady_clock::now();
  HIPPO_ASSIGN_OR_RETURN(SnapshotPtr snap,
                         Snapshot::Capture(master_.get(), next_epoch_));
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (out != nullptr) *out = snap;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    current_ = std::move(snap);
  }
  if (m_commit_publish_ != nullptr) {
    m_commit_publish_->Record(secs);
    m_epoch_->Set(static_cast<int64_t>(next_epoch_));
  }
  ++next_epoch_;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.snapshots_published;
    stats_.publish_seconds_total += secs;
    if (stats_.publish_seconds.size() < 16384) {
      stats_.publish_seconds.push_back(secs);
    }
  }
  return Status::OK();
}

SnapshotPtr QueryService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return current_;
}

uint64_t QueryService::epoch() const { return snapshot()->epoch(); }

Session QueryService::OpenSession() { return Session(this); }

std::future<Result<ResultSet>> QueryService::Submit(
    ReadMode mode, std::string select_sql, SnapshotPtr snap,
    cqa::HippoOptions options) {
  Job job;
  job.mode = mode;
  job.sql = std::move(select_sql);
  job.snapshot = snap != nullptr ? std::move(snap) : snapshot();
  job.options = std::move(options);
  std::future<Result<ResultSet>> fut = job.done.get_future();

  std::unique_lock<std::mutex> lock(queue_mu_);
  if (!stopping_ && queue_.size() >= options_.max_queue_depth) {
    if (options_.reject_when_full) {
      lock.unlock();
      if (m_rejected_ != nullptr) m_rejected_->Add(1);
      {
        std::lock_guard<std::mutex> s(stats_mu_);
        ++stats_.queries_rejected;
      }
      job.done.set_value(Status::ResourceExhausted(StrFormat(
          "admission queue full (depth %zu)", options_.max_queue_depth)));
      return fut;
    }
    // Backpressure: the submitter blocks until a slot frees. Timed only
    // when it actually blocks, so the uncontended path reads no clock.
    auto wait_start = std::chrono::steady_clock::now();
    space_cv_.wait(lock, [this] {
      return stopping_ || queue_.size() < options_.max_queue_depth;
    });
    if (m_admission_wait_ != nullptr) {
      m_admission_wait_->Record(SecondsSince(wait_start));
    }
  }
  if (stopping_) {
    lock.unlock();
    if (m_rejected_ != nullptr) m_rejected_->Add(1);
    {
      std::lock_guard<std::mutex> s(stats_mu_);
      ++stats_.queries_rejected;
    }
    job.done.set_value(
        Status::ResourceExhausted("query service is shut down"));
    return fut;
  }
  if (metrics_ != nullptr) {
    job.enqueued = std::chrono::steady_clock::now();
  }
  queue_.push_back(std::move(job));
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  lock.unlock();
  queue_cv_.notify_one();
  return fut;
}

void QueryService::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
      if (m_queue_depth_ != nullptr) {
        m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    space_cv_.notify_one();
    if (m_queue_wait_ != nullptr) {
      m_queue_wait_->Record(SecondsSince(job.enqueued));
    }
    Result<ResultSet> result = RunJob(&job);
    if (m_queries_ != nullptr) m_queries_->Add(1);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.queries_executed;
    }
    job.done.set_value(std::move(result));
  }
}

Result<ResultSet> QueryService::RunJob(Job* job) {
  const Snapshot& snap = *job->snapshot;
  // Untraced, unmeasured fast path: without a registry the read modes run
  // exactly the pre-observability code (one branch per request).
  if (metrics_ == nullptr) {
    switch (job->mode) {
      case ReadMode::kPlain:
        return snap.Query(job->sql);
      case ReadMode::kOverCore:
        return snap.QueryOverCore(job->sql);
      case ReadMode::kConsistent: {
        cqa::HippoStats hippo_stats;
        Result<ResultSet> rs =
            snap.ConsistentAnswers(job->sql, job->options, &hippo_stats);
        std::lock_guard<std::mutex> lock(stats_mu_);
        MergeHippoStats(hippo_stats, &stats_.hippo);
        return rs;
      }
    }
    return Status::Internal("unknown read mode");
  }
  auto start = std::chrono::steady_clock::now();
  switch (job->mode) {
    case ReadMode::kPlain:
    case ReadMode::kOverCore: {
      Result<ResultSet> rs = job->mode == ReadMode::kPlain
                                 ? snap.Query(job->sql)
                                 : snap.QueryOverCore(job->sql);
      double secs = SecondsSince(start);
      (job->mode == ReadMode::kPlain ? m_plain_latency_ : m_core_latency_)
          ->Record(secs);
      std::lock_guard<std::mutex> lock(stats_mu_);
      NoteSlowQueryLocked(*job, RouteKind::kNone, secs, nullptr);
      return rs;
    }
    case ReadMode::kConsistent: {
      cqa::HippoStats hippo_stats;
      Result<ResultSet> rs =
          snap.ConsistentAnswers(job->sql, job->options, &hippo_stats);
      double secs = SecondsSince(start);
      switch (hippo_stats.route) {
        case RouteKind::kConflictFree:
          m_route_cf_->Record(secs);
          break;
        case RouteKind::kRewriteAbc:
        case RouteKind::kRewriteKw:
          m_route_rewrite_->Record(secs);
          break;
        case RouteKind::kProver:
          m_route_prover_->Record(secs);
          break;
        case RouteKind::kNone:
          break;  // failed before routing (parse/classification error)
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      MergeHippoStats(hippo_stats, &stats_.hippo);
      NoteSlowQueryLocked(*job, hippo_stats.route, secs, &hippo_stats);
      return rs;
    }
  }
  return Status::Internal("unknown read mode");
}

void QueryService::NoteSlowQueryLocked(const Job& job, RouteKind route,
                                       double seconds,
                                       const cqa::HippoStats* hippo_stats) {
  const size_t cap = options_.slow_query_log_size;
  if (cap == 0) return;
  // Top-K by latency: replace the current minimum once the log is full.
  // K is small (default 16), so a linear min scan beats heap bookkeeping.
  size_t slot = slow_log_.size();
  if (slow_log_.size() >= cap) {
    size_t min_i = 0;
    for (size_t i = 1; i < slow_log_.size(); ++i) {
      if (slow_log_[i].seconds < slow_log_[min_i].seconds) min_i = i;
    }
    if (slow_log_[min_i].seconds >= seconds) return;
    slot = min_i;
  } else {
    slow_log_.emplace_back();
  }
  SlowQuery& entry = slow_log_[slot];
  entry.sql = job.sql;
  entry.mode = job.mode;
  entry.route = route;
  entry.seconds = seconds;
  entry.epoch = job.snapshot->epoch();
  if (job.options.trace != nullptr) {
    entry.summary = job.options.trace->Summary();
  } else if (hippo_stats != nullptr) {
    entry.summary = StrFormat(
        "route=%s candidates=%zu answers=%zu prover=%zu",
        RouteKindName(route), hippo_stats->candidates, hippo_stats->answers,
        hippo_stats->prover_invocations);
  } else {
    entry.summary = job.mode == ReadMode::kPlain ? "plain" : "core";
  }
}

std::vector<QueryService::SlowQuery> QueryService::SlowQueries() const {
  std::vector<SlowQuery> out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = slow_log_;
  }
  std::sort(out.begin(), out.end(),
            [](const SlowQuery& a, const SlowQuery& b) {
              return a.seconds > b.seconds;
            });
  return out;
}

std::string QueryService::DumpMetrics() const {
  return metrics_ != nullptr ? metrics_->DumpPrometheus() : std::string();
}

std::string QueryService::DumpMetricsJson() const {
  return metrics_ != nullptr ? metrics_->DumpJson() : std::string("{}");
}

void QueryService::Shutdown() {
  // Stop write admission first, then let the pipeline drain everything
  // already admitted (including an in-flight async round) before joining.
  {
    std::lock_guard<std::mutex> lock(pipeline_mu_);
    commits_stopping_ = true;
  }
  pipeline_cv_.notify_all();
  write_space_cv_.notify_all();
  if (pipeline_.joinable()) pipeline_.join();
  if (detect_thread_.joinable()) detect_thread_.join();
  {
    // Defensive sweep: the admission gate makes a post-drain push
    // impossible, but never strand a promise if that invariant is ever
    // broken.
    CommitRequest req;
    while (write_ring_.TryPop(&req)) {
      Reject(&req, Status::ResourceExhausted("query service is shut down"));
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ServiceStats QueryService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  // Snapshot-on-read: the route histograms are live sharded atomics; the
  // copies below are consistent totals once recorders quiesce.
  if (metrics_ != nullptr) {
    out.conflict_free_latency = m_route_cf_->Snapshot();
    out.rewrite_latency = m_route_rewrite_->Snapshot();
    out.prover_latency = m_route_prover_->Snapshot();
  }
  return out;
}

}  // namespace hippo::service
