// The traced pass: one untimed round of a workload in which the benchmark
// times each layer through its public entry points, with its own timers,
// and reads the counters the program already exposes (HippoStats,
// CommitReceipt::phases, IncrementalStats). Nothing inside the library is
// instrumented for it.
#include <map>
#include <unordered_set>
#include <utility>

#include "cqa/engine.h"
#include "cqa/envelope.h"
#include "db/database.h"
#include "detect/detector.h"
#include "exec/executor.h"
#include "plan/router.h"
#include "plan/sjud.h"
#include "service/snapshot.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "workloads.h"

namespace perfbench {

using hippo::service::CommitReceipt;
using hippo::service::QueryService;
using hippo::service::Snapshot;
using hippo::service::SnapshotPtr;

namespace {

/// Per-operation samples, by metric name.
using Samples = std::map<std::string, std::vector<double>>;

template <typename Fn>
double TimeMs(Fn&& fn) {
  auto t0 = Clock::now();
  fn();
  return MsSince(t0);
}

/// Returns fn()'s result and stores its wall time in *ms.
template <typename Fn>
auto Timed(double* ms, Fn&& fn) {
  auto t0 = Clock::now();
  auto result = fn();
  *ms = MsSince(t0);
  return result;
}

/// Decomposes one consistent read into its layers at `snap`.
void TraceRead(const Query& query, const SnapshotPtr& snap,
               QueryService* service, Verifier* verifier, Samples* s,
               Outcome* out) {
  const std::string sql = query.Sql();
  ++out->attempted;
  auto fail = [&](const std::string& what, const hippo::Status& st) {
    out->Failed(sql + ": " + what + ": " + st.ToString());
  };

  (*s)["sql.parse_ms"].push_back(
      TimeMs([&] { (void)hippo::sql::ParseStatement(sql); }));

  double ms = 0;
  double plan_ms = 0;
  auto planned = Timed(&plan_ms, [&] { return snap->Plan(sql); });
  if (!planned.ok()) return fail("plan", planned.status());
  const hippo::PlanNode& plan = *planned.value();
  (*s)["plan.plan_ms"].push_back(plan_ms);

  // The engine on the pre-built plan, routed as in the timed runs; with
  // the plan above this is the traced read's end-to-end time. It runs
  // before the layer calls below, which would warm the caches for it.
  hippo::cqa::HippoEngine engine(snap->catalog(), snap->hypergraph(),
                                 &snap->constraints(), &snap->foreign_keys());
  hippo::cqa::HippoOptions options;
  auto answer =
      Timed(&ms, [&] { return engine.ConsistentAnswers(plan, options); });
  if (!answer.ok()) return fail("answer", answer.status());
  (*s)["trace.read_ms"].push_back(plan_ms + ms);
  if (!verifier->Check(query, answer.value())) {
    out->Wrong(sql + ": traced answer differs from the oracle");
  }

  auto route = Timed(&ms, [&] {
    return hippo::ClassifyRoute(plan, snap->catalog(), &snap->constraints(),
                                &snap->foreign_keys(), &snap->hypergraph(),
                                hippo::RouteMode::kAuto);
  });
  if (!route.ok()) return fail("route", route.status());
  (*s)["plan.route_ms"].push_back(ms);

  // The plan the router hands to the executor: the rewritten plan on a
  // first-order route, the query itself otherwise; below any root sort, as
  // the engine evaluates it.
  const hippo::PlanNode* body = route.value().rewritten != nullptr
                                    ? route.value().rewritten.get()
                                    : &plan;
  if (body->kind() == hippo::PlanKind::kSort) body = &body->child(0);
  hippo::ExecContext ctx{&snap->catalog(), nullptr};
  auto rows = Timed(&ms, [&] { return hippo::Execute(*body, ctx); });
  if (!rows.ok()) return fail("exec", rows.status());
  (*s)["exec.exec_ms"].push_back(ms);
  (*s)["exec.rows_out"].push_back(static_cast<double>(rows.value().NumRows()));

  const bool prover_servable = hippo::CheckSjudSupported(plan).ok();
  if (prover_servable) {
    hippo::PlanNodePtr envelope = hippo::cqa::BuildEnvelope(plan);
    auto candidates =
        Timed(&ms, [&] { return hippo::Execute(*envelope, ctx); });
    if (!candidates.ok()) return fail("envelope", candidates.status());
    (*s)["exec.envelope_ms"].push_back(ms);

    // The paper's pipeline on the same plan (forced where the router picks
    // a first-order route), for the cqa layer's time and counters.
    options.route = hippo::RouteMode::kForceProver;
    hippo::cqa::HippoStats st;
    auto proved = Timed(
        &ms, [&] { return engine.ConsistentAnswers(plan, options, &st); });
    if (!proved.ok()) return fail("prover", proved.status());
    (*s)["cqa.answer_ms"].push_back(ms);
    if (!verifier->Check(query, proved.value())) {
      out->Wrong(sql + ": prover answer differs from the oracle");
    }
    (*s)["cqa.envelope_ms"].push_back(1e3 * st.envelope_seconds);
    (*s)["cqa.prove_ms"].push_back(1e3 * st.prove_seconds);
    (*s)["cqa.candidates"].push_back(static_cast<double>(st.candidates));
    (*s)["cqa.prover_invocations"].push_back(
        static_cast<double>(st.prover_invocations));
    (*s)["cqa.membership_checks"].push_back(
        static_cast<double>(st.membership_checks));
    (*s)["cqa.clauses_checked"].push_back(
        static_cast<double>(st.clauses_checked));
    (*s)["cqa.filtered"].push_back(static_cast<double>(st.filtered_shortcuts));
  }

  // Pool overhead: the same query at the same snapshot, on this thread and
  // through the service's worker pool.
  double session_ms = 0;
  auto direct =
      Timed(&session_ms, [&] { return snap->ConsistentAnswers(sql); });
  auto pooled = Timed(&ms, [&] {
    return service->Submit(QueryService::ReadMode::kConsistent, sql, snap)
        .get();
  });
  if (!direct.ok()) return fail("session", direct.status());
  if (!pooled.ok()) return fail("submit", pooled.status());
  (*s)["service.pool_ms"].push_back(ms - session_ms);
}

/// Median of `reps` timings of `fn`, in ms.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(TimeMs(fn));
  return Median(ms);
}

/// The probes on a private Database loaded from the same script: full
/// detection, incremental maintenance of the round's commits, and the
/// copy-on-write pieces one publish is made of.
void ProbeStorage(const std::string& load, const std::vector<Step>& round,
                  Outcome* out) {
  constexpr int kReps = 5;
  hippo::Database db;
  hippo::Status st = db.Execute(load);
  if (!st.ok()) return out->Failed("private load: " + st.ToString());

  size_t edges = 0;
  std::vector<double> detect_s;
  for (int i = 0; i < 3; ++i) {
    hippo::ConflictDetector detector(db.catalog());
    auto t0 = Clock::now();
    auto graph = detector.DetectAll(db.constraints(), db.foreign_keys());
    detect_s.push_back(SecondsSince(t0));
    if (!graph.ok()) return out->Failed("detect: " + graph.status().ToString());
    edges = graph.value().NumEdges();
  }
  out->Add("detect.detect_all_s", Median(detect_s), "s");
  out->Add("detect.edges", static_cast<double>(edges), "count");

  st = db.EnableIncrementalMaintenance();
  if (!st.ok()) return out->Failed("incremental: " + st.ToString());
  std::vector<double> apply_ms;
  for (const Step& step : round) {
    for (const Script& c : step.commits) {
      std::string sql = ScriptSql(c);
      apply_ms.push_back(TimeMs([&] { st = db.Execute(sql); }));
      if (!st.ok()) return out->Failed(sql + ": " + st.ToString());
    }
  }
  out->Add("detect.incremental_apply_ms", Median(apply_ms), "ms");
  out->Add("detect.fallback_rows",
           static_cast<double>(db.incremental_stats().fallback_rows), "count");

  auto p = std::as_const(db.catalog()).GetTable("p");
  if (!p.ok()) return out->Failed("table p: " + p.status().ToString());
  const hippo::Table& table = *p.value();
  out->Add("storage.table_copy_ms", MedianMs(kReps, [&] {
             hippo::Table copy(table);
             (void)copy;
           }),
           "ms");
  std::vector<double> columnar_ms;
  for (int i = 0; i < kReps; ++i) {
    hippo::Table copy(table);
    auto ins = copy.Insert(hippo::Row{hippo::Value::Int(-1 - i),
                                      hippo::Value::Int(0)});
    if (!ins.ok()) return out->Failed("insert: " + ins.status().ToString());
    columnar_ms.push_back(TimeMs([&] { (void)copy.columnar(); }));
  }
  out->Add("storage.columnar_ms", Median(columnar_ms), "ms");
  out->Add("catalog.share_ms",
           MedianMs(kReps, [&] { (void)db.catalog().Share(); }), "ms");
  out->Add("hypergraph.share_ms",
           MedianMs(kReps, [&] { (void)db.ShareHypergraph(); }), "ms");
  out->Add("service.capture_ms",
           MedianMs(kReps, [&] { (void)Snapshot::Capture(&db, 1); }), "ms");
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

}  // namespace

void RunTraced(const WorkloadPlan& plan, Outcome* out) {
  const std::string load = plan.data.LoadSql();
  std::vector<double> parse_s;
  for (int i = 0; i < 3; ++i) {
    auto t0 = Clock::now();
    auto parsed = hippo::sql::ParseScript(load);
    parse_s.push_back(SecondsSince(t0));
    if (!parsed.ok()) {
      return out->Failed("parse: " + parsed.status().ToString());
    }
  }
  out->Add("sql.load_parse_s", Median(parse_s), "s");

  const std::vector<Step> round = plan.make_round(0);
  ProbeStorage(load, round, out);

  QueryService service(BenchServiceOptions());
  CommitReceipt loaded = service.CommitAsync(load).get();
  if (!loaded.status.ok() || loaded.snapshot == nullptr) {
    return out->Failed("load: " + loaded.status.ToString());
  }
  SnapshotPtr snapshot = loaded.snapshot;
  Instance model = plan.data;
  Verifier verifier(&model);
  Samples s;
  for (const Step& step : round) {
    if (!step.commits.empty()) {
      std::vector<std::string> scripts;
      for (const Script& c : step.commits) scripts.push_back(ScriptSql(c));
      SnapshotPtr before = snapshot;
      for (auto& f : service.CommitMany(std::move(scripts))) {
        CommitReceipt receipt = f.get();
        ++out->attempted;
        if (!receipt.status.ok() || receipt.snapshot == nullptr) {
          out->Failed("commit: " + receipt.status.ToString());
          continue;
        }
        s["service.queue_ms"].push_back(1e3 * receipt.phases.queue_seconds);
        s["service.apply_ms"].push_back(1e3 * receipt.phases.apply_seconds);
        s["service.publish_ms"].push_back(
            1e3 * receipt.phases.publish_seconds);
        s["service.group_size"].push_back(
            static_cast<double>(receipt.group_size));
        if (receipt.epoch > snapshot->epoch()) snapshot = receipt.snapshot;
      }
      // What the batch's publication allocated beyond its predecessor.
      std::unordered_set<const void*> seen;
      before->CollectStorageIdentity(&seen);
      s["service.marginal_bytes"].push_back(
          static_cast<double>(snapshot->AccumulateApproxBytes(&seen)));
      for (const Script& c : step.commits) {
        for (const Mutation& m : c) m.ApplyTo(&model.p);
      }
      verifier.Invalidate();
    }
    if (step.has_read) {
      TraceRead(step.read, snapshot, &service, &verifier, &s, out);
    }
  }

  // Times: median per operation. Counts: mean per query.
  for (const char* name :
       {"sql.parse_ms", "plan.plan_ms", "plan.route_ms", "exec.exec_ms",
        "exec.envelope_ms", "cqa.answer_ms", "cqa.envelope_ms",
        "cqa.prove_ms", "service.queue_ms", "service.apply_ms",
        "service.publish_ms", "service.pool_ms"}) {
    out->Add(name, Median(s[name]), "ms");
  }
  out->Add("trace.read_p50_ms", Median(s["trace.read_ms"]), "ms");
  out->Add("trace.read_p90_ms", Quantile(s["trace.read_ms"], 0.9), "ms");
  for (const char* name :
       {"exec.rows_out", "cqa.candidates", "cqa.prover_invocations",
        "cqa.membership_checks", "cqa.clauses_checked",
        "service.group_size"}) {
    out->Add(name, Mean(s[name]), "count");
  }
  double candidates = Sum(s["cqa.candidates"]);
  out->Add("cqa.filtered_ratio",
           candidates > 0 ? Sum(s["cqa.filtered"]) / candidates : 0, "ratio");
  out->Add("service.marginal_bytes", Median(s["service.marginal_bytes"]),
           "bytes");
}

}  // namespace perfbench
