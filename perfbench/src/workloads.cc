#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace perfbench {

using hippo::RouteKind;
using hippo::service::CommitReceipt;
using hippo::service::QueryService;
using hippo::service::ServiceOptions;
using hippo::service::SnapshotPtr;

namespace {

// ---------------------------------------------------------------- sizes
// prover-sparse: the canonical p/q instance, SJUD reads outside both
// first-order classes.
constexpr size_t kSparseRows = 5000;
constexpr double kSparseConflictRate = 0.05;
// rewrite-dense: 80% of p in blocks of 64 tuples sharing a key.
constexpr size_t kDenseRows = 4096;
constexpr size_t kDenseBlock = 64;
constexpr double kDenseBlockRate = 0.8;
// Keys of p's [0, 4096) key space that one narrowing read covers.
constexpr int64_t kNarrowRange = 64;
// churn-mixed: the sparse instance, 16-commit batches, one read each.
constexpr size_t kChurnRows = 5000;
constexpr size_t kChurnBatches = 50;
constexpr size_t kChurnBatchSize = 16;
constexpr int64_t kChurnWindow = 64;
// The two read workloads also commit, so that they too report the commit
// metrics: kWriteCommits single commits per round spread evenly among the
// reads. Each commit runs one rolling step, which rewrites the conflicts of
// kWriteKeys keys, except every kLargeEvery-th, which runs kLargeSteps.
constexpr size_t kWriteCommits = 12;
constexpr size_t kWriteKeys = 8;
constexpr size_t kLargeEvery = 4;
constexpr size_t kLargeSteps = 4;
constexpr size_t kWriteSteps =
    kWriteCommits + (kWriteCommits / kLargeEvery) * (kLargeSteps - 1);
// The read workloads load a fresh service every this many rounds. Row slots
// are never reclaimed; the warm-up inserts 336 new ones into p and each
// round 168, so p stays within 1.20x (prover-sparse) and 1.25x
// (rewrite-dense) of its loaded size, whatever the run length.
constexpr int kReadRoundsPerService = 4;

/// Values written in round `round`: above every generated value and new in
/// each round, so every insert takes a new row slot.
int64_t FreshValue(int round) { return 1000000 + round + 1; }

/// Written and deleted again by the warm-up batch; no other write uses it.
constexpr int64_t kWarmUpValue = 999999;

/// A rolling FD churn over key groups: step j of a round deletes the
/// conflicting tuples step j-1 wrote and writes one on every key of
/// groups[j]; step 0 deletes those of the previous round's last step. The
/// load writes the last step's tuples once (AddRollingStart), so every
/// round starts from the same state up to the fresh values.
struct RollingChurn {
  std::vector<std::vector<int64_t>> groups;

  void AddRollingStart(Instance* data) const {
    for (int64_t k : groups.back()) data->AddP(k, FreshValue(-1));
  }
  std::vector<Mutation> Deletes(size_t j, int round) const {
    size_t prev = (j + groups.size() - 1) % groups.size();
    int written = j == 0 ? round - 1 : round;
    std::vector<Mutation> out;
    for (int64_t k : groups[prev]) {
      out.push_back(Mutation{false, k, FreshValue(written)});
    }
    return out;
  }
  std::vector<Mutation> Inserts(size_t j, int round) const {
    std::vector<Mutation> out;
    for (int64_t k : groups[j]) {
      out.push_back(Mutation{true, k, FreshValue(round)});
    }
    return out;
  }
};

struct MixEntry {
  QueryKind kind;
  size_t count;       ///< reads of this class per round
  int64_t range = 0;  ///< keys a ranged read covers
};

/// The read part of a round: `mix` shuffled, with fresh constants for the
/// parameterized classes.
std::vector<Step> MixReads(const std::vector<MixEntry>& mix,
                           const std::vector<int64_t>& keys, Rng* rng) {
  std::vector<Step> steps;
  for (const MixEntry& m : mix) {
    for (size_t i = 0; i < m.count; ++i) {
      Step s;
      s.has_read = true;
      s.read.kind = m.kind;
      int64_t k = keys[rng->Below(keys.size())];
      s.read.x = k;
      s.read.y = k + m.range;
      steps.push_back(s);
    }
  }
  Shuffle(&steps, rng);
  return steps;
}

/// The read workloads' writes: a rolling churn over kWriteSteps groups of
/// kWriteKeys distinct consistent keys. Every step has one shape (delete
/// the previous step's conflicting tuples, insert its own), so no
/// percentile falls between an insert class and a delete class.
RollingChurn WriteChurn(const Instance& data, int64_t keys, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> picked = PickConsistentKeys(
      data.p, 0, keys, kWriteSteps * kWriteKeys, &rng);
  RollingChurn churn;
  for (size_t j = 0; j < kWriteSteps; ++j) {
    churn.groups.emplace_back(picked.begin() + j * kWriteKeys,
                              picked.begin() + (j + 1) * kWriteKeys);
  }
  return churn;
}

/// Places the round's kWriteCommits commits evenly among its reads. Single
/// commits of a few statements, spread over the run: a commit's latency
/// then holds more work than thread wake-ups, whose cost moved by 60% with
/// the load on the host, and the samples cover the whole run, as the reads
/// do. (One batch per round left the commit percentiles on a dozen
/// samples.) Every kLargeEvery-th commit runs kLargeSteps rolling steps in
/// one script, 4x the statements of the others, so the commit mix has two
/// classes: the median falls inside the one-step class and the 90th
/// percentile inside the large one (cumulative shares 75/100%), not on the
/// tail of a single class, which moved with the load on the host.
std::vector<Step> InterleaveWrites(std::vector<Step> reads,
                                   const RollingChurn& writes, int round) {
  std::vector<Step> steps;
  for (size_t c = 0, j = 0, next = 0; c < kWriteCommits; ++c) {
    size_t until = (c + 1) * reads.size() / kWriteCommits;
    for (; next < until; ++next) steps.push_back(std::move(reads[next]));
    const size_t n = (c + 1) % kLargeEvery == 0 ? kLargeSteps : 1;
    Script script;
    for (size_t end = j + n; j < end; ++j) {
      for (const Mutation& m : writes.Deletes(j, round)) script.push_back(m);
      for (const Mutation& m : writes.Inserts(j, round)) script.push_back(m);
    }
    steps.emplace_back();
    steps.back().commits.push_back(std::move(script));
  }
  return steps;
}

std::vector<int64_t> KeysOf(const Relation& r) {
  std::vector<int64_t> keys;
  for (const auto& kv : r.values()) keys.push_back(kv.first);
  return keys;
}

void PlanProverSparse(uint64_t seed, WorkloadPlan* plan) {
  plan->data = SparseInstance(kSparseRows, kSparseConflictRate, seed);
  plan->expect = Expect::kProver;
  plan->nominal_round_seconds = 1.05;
  plan->rounds_per_service = kReadRoundsPerService;
  RollingChurn writes =
      WriteChurn(plan->data, kSparseRows, seed ^ 0x5eed0001);
  writes.AddRollingStart(&plan->data);
  std::vector<int64_t> keys = KeysOf(plan->data.p);
  plan->make_round = [=](int round) {
    Rng r(seed * 7919 + static_cast<uint64_t>(round));
    // Shares chosen so that the median falls inside the intersection class
    // and the 90th percentile inside the union-of-differences class.
    static const std::vector<MixEntry> mix = {
        {QueryKind::kDifference, 16},
        {QueryKind::kIntersection, 20},
        {QueryKind::kUnion, 4},
        {QueryKind::kUnionOfDifferences, 10},
    };
    return InterleaveWrites(MixReads(mix, keys, &r), writes, round);
  };
}

void PlanRewriteDense(uint64_t seed, WorkloadPlan* plan) {
  plan->data =
      DenseInstance(kDenseRows, kDenseBlock, kDenseBlockRate, seed);
  plan->expect = Expect::kFirstOrder;
  plan->nominal_round_seconds = 0.5;
  plan->rounds_per_service = kReadRoundsPerService;
  RollingChurn writes = WriteChurn(plan->data, kDenseRows, seed ^ 0x5eed0002);
  writes.AddRollingStart(&plan->data);
  std::vector<int64_t> keys = KeysOf(plan->data.p);
  plan->make_round = [=](int round) {
    Rng r(seed * 7919 + static_cast<uint64_t>(round));
    // The median falls inside the O(table) selections (point, range and
    // star cost the same), the 90th percentile inside the join class. The
    // narrowing projection is the slowest class; over 64 keys it costs
    // about twice a join, where over all of p it cost 50 joins and one
    // such read made up 70% of a round's read time.
    static const std::vector<MixEntry> mix = {
        {QueryKind::kPoint, 20},
        {QueryKind::kRange, 15, kDenseRows / 16},
        {QueryKind::kStar, 10},
        {QueryKind::kJoin, 15},
        {QueryKind::kNarrow, 4, kNarrowRange},
    };
    return InterleaveWrites(MixReads(mix, keys, &r), writes, round);
  };
}

void PlanChurnMixed(uint64_t seed, WorkloadPlan* plan) {
  plan->data = SparseInstance(kChurnRows, kSparseConflictRate, seed);
  plan->expect = Expect::kPool;
  plan->nominal_round_seconds = 0.75;
  // Every insert takes a new row slot and deletes leave tombstones, so p
  // grows by 400 slots per round; commit latency rose by 60-70% over 4
  // rounds on one service. A fresh service every round keeps p within
  // 1.08x of its loaded size.
  plan->rounds_per_service = 1;
  Rng rng(seed ^ 0x5eed0003);
  const int64_t span = static_cast<int64_t>(kChurnBatches) * kChurnWindow;
  const int64_t offset = static_cast<int64_t>(
      rng.Below(static_cast<uint64_t>(kChurnRows - span + 1)));
  // Batch j churns consistent keys of window j; its read covers windows
  // j-1 and j, so it sees both the batch's deletes and its inserts.
  RollingChurn churn;
  for (size_t j = 0; j < kChurnBatches; ++j) {
    int64_t lo = offset + static_cast<int64_t>(j) * kChurnWindow;
    churn.groups.push_back(PickConsistentKeys(
        plan->data.p, lo, lo + kChurnWindow, kChurnBatchSize / 2, &rng));
  }
  churn.AddRollingStart(&plan->data);
  plan->make_round = [=](int round) {
    std::vector<Step> steps;
    for (size_t j = 0; j < kChurnBatches; ++j) {
      Step s;
      // One single-statement script per commit.
      for (const Mutation& m : churn.Deletes(j, round)) {
        s.commits.push_back({m});
      }
      for (const Mutation& m : churn.Inserts(j, round)) {
        s.commits.push_back({m});
      }
      size_t prev = (j + kChurnBatches - 1) % kChurnBatches;
      s.has_read = true;
      s.read.kind = QueryKind::kWindows;
      s.read.x = offset + static_cast<int64_t>(prev) * kChurnWindow;
      s.read.y = s.read.x + kChurnWindow;
      s.read.x2 = offset + static_cast<int64_t>(j) * kChurnWindow;
      s.read.y2 = s.read.x2 + kChurnWindow;
      steps.push_back(std::move(s));
    }
    return steps;
  };
}

bool FirstOrder(RouteKind k) {
  return k == RouteKind::kConflictFree || k == RouteKind::kRewriteAbc ||
         k == RouteKind::kRewriteKw;
}

/// Latency samples of one class of operation, for the stderr summary.
using ClassSamples = std::map<std::string, std::vector<double>>;

void PrintClasses(const ClassSamples& classes) {
  for (const auto& [name, ms] : classes) {
    std::fprintf(stderr, "  %-22s n=%-5zu p50=%9.3f ms  p90=%9.3f ms\n",
                 name.c_str(), ms.size(), Median(ms), Quantile(ms, 0.9));
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "prover-sparse", "rewrite-dense", "churn-mixed"};
  return names;
}

bool MakePlan(const std::string& name, uint64_t seed, WorkloadPlan* plan) {
  plan->name = name;
  if (name == "prover-sparse") {
    PlanProverSparse(seed, plan);
  } else if (name == "rewrite-dense") {
    PlanRewriteDense(seed, plan);
  } else if (name == "churn-mixed") {
    PlanChurnMixed(seed, plan);
  } else {
    return false;
  }
  return true;
}

ServiceOptions BenchServiceOptions() {
  ServiceOptions options;
  options.threads = 1;
  return options;
}

void RunTimed(const WorkloadPlan& plan, const RunConfig& cfg, Outcome* out) {
  constexpr int kSetups = 15;
  const std::string load = plan.data.LoadSql();
  std::vector<double> setups;
  std::unique_ptr<QueryService> service;
  SnapshotPtr snapshot;
  Instance model;
  Verifier verifier(&model);
  const hippo::cqa::HippoOptions hippo_options;
  std::vector<double> read_ms, commit_ms;
  double commit_seconds = 0;
  ClassSamples classes;
  size_t groups = 0;  ///< published epochs the commits landed in

  auto read = [&](const Query& query, bool timed) {
    const std::string sql = query.Sql();
    hippo::cqa::HippoStats stats;
    auto t0 = Clock::now();
    hippo::Result<hippo::ResultSet> rs =
        plan.expect == Expect::kPool
            ? service
                  ->Submit(QueryService::ReadMode::kConsistent, sql, snapshot)
                  .get()
            : snapshot->ConsistentAnswers(sql, hippo_options, &stats);
    double ms = MsSince(t0);
    ++out->attempted;
    if (timed) {
      read_ms.push_back(ms);
      classes[QueryKindName(query.kind)].push_back(ms);
    }
    if (!rs.ok()) {
      out->Failed(sql + ": " + rs.status().ToString());
      return;
    }
    if (plan.expect == Expect::kProver &&
        (stats.route != RouteKind::kProver || stats.prover_invocations == 0)) {
      out->Failed(sql + ": not served by the prover (route " +
                  hippo::RouteKindName(stats.route) + ")");
      return;
    }
    if (plan.expect == Expect::kFirstOrder &&
        (!FirstOrder(stats.route) || stats.prover_invocations != 0)) {
      out->Failed(sql + ": not served first-order (route " +
                  hippo::RouteKindName(stats.route) + ")");
      return;
    }
    if (!verifier.Check(query, rs.value())) {
      out->Wrong(sql + ": answer differs from the oracle");
    }
  };

  // Set-up: a fresh service loaded by one bulk commit, until its first
  // snapshot (hypergraph built) is published.
  auto start_service = [&]() -> bool {
    service.reset();
    snapshot.reset();
    auto t0 = Clock::now();
    service = std::make_unique<QueryService>(BenchServiceOptions());
    CommitReceipt receipt = service->CommitAsync(load).get();
    setups.push_back(SecondsSince(t0));
    if (!receipt.status.ok() || receipt.snapshot == nullptr) {
      ++out->attempted;
      out->Failed("load: " + receipt.status.ToString());
      return false;
    }
    snapshot = receipt.snapshot;
    model = plan.data;
    verifier.Invalidate();
    return true;
  };
  // Commits one batch of scripts, waits for every receipt and moves the
  // read snapshot to the last published epoch.
  auto commit = [&](const std::vector<Script>& batch, bool timed) {
    std::vector<std::string> scripts;
    for (const Script& c : batch) scripts.push_back(ScriptSql(c));
    auto t0 = Clock::now();
    auto futures = service->CommitMany(std::move(scripts));
    std::set<uint64_t> epochs;
    for (size_t i = 0; i < futures.size(); ++i) {
      CommitReceipt receipt = futures[i].get();
      double ms = MsSince(t0);
      ++out->attempted;
      if (timed) {
        commit_ms.push_back(ms);
        classes["(commit, " + std::to_string(batch[i].size()) +
                " statements)"].push_back(ms);
      }
      if (!receipt.status.ok() || receipt.snapshot == nullptr) {
        out->Failed("commit: " + receipt.status.ToString());
        continue;
      }
      epochs.insert(receipt.epoch);
      if (receipt.epoch > snapshot->epoch()) snapshot = receipt.snapshot;
    }
    if (timed) {
      commit_seconds += SecondsSince(t0);
      groups += epochs.size();
    }
  };
  // Untimed work on a new service, so that lazily built state exists
  // before timing starts: one read of every class (the tables' columnar
  // views), then the round's first commit steps with every statement
  // replaced by a tuple written and deleted again (the incremental
  // maintainer, the writer's first copies and its allocator; the first
  // commits on a new service took up to twice as long as later ones).
  auto warm_up = [&] {
    constexpr size_t kWarmUpCommitSteps = 12;
    std::set<QueryKind> seen;
    const std::vector<Step> round = plan.make_round(0);
    for (const Step& step : round) {
      if (step.has_read && step.commits.empty() &&
          seen.insert(step.read.kind).second) {
        read(step.read, false);
      }
    }
    size_t warmed = 0;
    for (const Step& step : round) {
      if (step.commits.empty()) continue;
      std::vector<Script> batch;
      for (const Script& c : step.commits) {
        Script net_zero;
        for (const Mutation& m : c) {
          net_zero.push_back(Mutation{true, m.a, kWarmUpValue});
          net_zero.push_back(Mutation{false, m.a, kWarmUpValue});
        }
        batch.push_back(std::move(net_zero));
      }
      commit(batch, false);
      if (++warmed == kWarmUpCommitSteps) break;
    }
  };
  auto t_setup = Clock::now();
  for (int i = 0; i < kSetups; ++i) {
    if (!start_service()) return;
  }
  std::fprintf(stderr, "%d set-ups: %.2f s\n", kSetups,
               SecondsSince(t_setup));
  auto t_warm = Clock::now();
  warm_up();
  std::fprintf(stderr, "warm-up: %.2f s\n", SecondsSince(t_warm));

  // Whole rounds, and a whole number of services' worth of them.
  auto at_least_one = [](double x) {
    return std::max(1, static_cast<int>(std::lround(x)));
  };
  int rounds = at_least_one(cfg.seconds / plan.nominal_round_seconds);
  const int per_service =
      plan.rounds_per_service > 0 ? plan.rounds_per_service : rounds;
  const int services = at_least_one(static_cast<double>(rounds) / per_service);
  rounds = services * per_service;
  for (int round = 0; round < rounds; ++round) {
    const int r = round % per_service;
    if (round > 0 && r == 0) {
      if (!start_service()) return;
      warm_up();
    }
    const size_t reads_before = read_ms.size();
    const size_t commits_before = commit_ms.size();
    for (const Step& step : plan.make_round(r)) {
      if (!step.commits.empty()) {
        commit(step.commits, true);
        for (const Script& c : step.commits) {
          for (const Mutation& m : c) m.ApplyTo(&model.p);
        }
        verifier.Invalidate();
      }
      if (step.has_read) read(step.read, true);
    }
    std::fprintf(
        stderr, "round %d: read p50 %.3f ms, commit p50 %.3f ms\n", round,
        Median(std::vector<double>(read_ms.begin() + reads_before,
                                   read_ms.end())),
        Median(std::vector<double>(commit_ms.begin() + commits_before,
                                   commit_ms.end())));
  }

  std::fprintf(stderr,
               "%s: %d rounds on %d service(s), %zu reads, %zu commits in "
               "%zu groups, peak RSS %.1f MB\n",
               plan.name.c_str(), rounds, services, read_ms.size(),
               commit_ms.size(), groups, PeakRssMb());
  PrintClasses(classes);

  out->Add("setup_s", Median(setups), "s");
  out->Add("read_qps",
           1e3 * static_cast<double>(read_ms.size()) / Sum(read_ms), "1/s");
  out->Add("read_p50_ms", Median(read_ms), "ms");
  out->Add("read_p90_ms", Quantile(read_ms, 0.9), "ms");
  out->Add("commit_ps", static_cast<double>(commit_ms.size()) / commit_seconds,
           "1/s");
  out->Add("commit_p50_ms", Median(commit_ms), "ms");
  out->Add("commit_p90_ms", Quantile(commit_ms, 0.9), "ms");
}

}  // namespace perfbench
