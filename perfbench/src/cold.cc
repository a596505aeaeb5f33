#include "cold.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "cqa/cqa.h"
#include "cqa/query.h"
#include "repair/repair_engine.h"
#include "repair/stability.h"

namespace perfbench {

namespace dr = deltarepair;

namespace {

constexpr int kFirstTouchRepeats = 3;

/// What one cold request returned; the first round's outcomes are kept
/// for the checks, later rounds are compared against them.
struct Outcome {
  bool failed = false;
  double latency_ms = 0;
  std::string work;  // one-line work summary (--verbose)
  dr::TerminationReason termination = dr::TerminationReason::kComplete;
  dr::RepairResult repair;             // repair requests
  std::vector<dr::CqaAnswer> answers;  // CQA requests
};

void AccountRepair(const dr::RepairStats& st, double resolve_ms,
                   double latency_ms, Layers* layers, PhaseCheck* phases) {
  const double eval = st.eval_seconds * 1e3;
  const double prov = st.process_prov_seconds * 1e3;
  const double solve = st.solve_seconds * 1e3;
  const double traverse = st.traverse_seconds * 1e3;
  const double other = phases->Other(
      "repair", latency_ms, resolve_ms + eval + prov + solve + traverse);
  layers->Add("datalog.resolve_ms", resolve_ms);
  layers->Add("datalog.eval_ms", eval);
  layers->Add("datalog.assignments", static_cast<double>(st.assignments));
  layers->Add("repair.fixpoint_rounds", static_cast<double>(st.iterations));
  layers->Add("repair.traverse_ms", traverse);
  layers->Add("repair.other_ms", other);
  layers->Add("provenance.process_ms", prov);
  layers->Add("provenance.graph_nodes", static_cast<double>(st.graph_nodes));
  layers->Add("sat.solve_ms", solve);
  layers->Add("sat.cnf_clauses", static_cast<double>(st.cnf_clauses));
  layers->Add("sat.conflicts", static_cast<double>(st.sat_conflicts));
  layers->Add("sat.solve_calls", static_cast<double>(st.sat_solve_calls));
  layers->Add("sat.inprocess_runs",
              static_cast<double>(st.sat_inprocess_runs));
}

void AccountCqa(const dr::CqaStats& st, double resolve_ms, double latency_ms,
                Layers* layers, PhaseCheck* phases) {
  const double ground = st.ground_seconds * 1e3;
  const double space = st.space_seconds * 1e3;
  const double entail = st.entail_seconds * 1e3;
  const double other =
      phases->Other("cqa", latency_ms, resolve_ms + ground + space + entail);
  layers->Add("datalog.resolve_ms", resolve_ms);
  layers->Add("datalog.eval_ms", st.repair.eval_seconds * 1e3);
  layers->Add("datalog.assignments",
              static_cast<double>(st.repair.assignments));
  layers->Add("cqa.ground_ms", ground);
  layers->Add("cqa.space_ms", space);
  layers->Add("cqa.entail_ms", entail);
  layers->Add("cqa.other_ms", other);
  layers->Add("cqa.sliced_solves",
              static_cast<double>(st.slice.sliced_solve_calls));
  layers->Add("cqa.slice_fallbacks",
              static_cast<double>(st.slice.slice_fallbacks));
  layers->Add("cqa.undecided_answers",
              static_cast<double>(st.undecided_answers));
  layers->Add("provenance.cone_ms", st.slice.cone_seconds * 1e3);
  layers->Add("provenance.slice_ms", st.slice.slice_seconds * 1e3);
  layers->Add("provenance.cone_clauses",
              static_cast<double>(st.slice.cone_clauses));
  layers->Add("sat.solve_ms", st.repair.solve_seconds * 1e3);
  layers->Add("sat.cnf_clauses", static_cast<double>(st.repair.cnf_clauses));
  layers->Add("sat.conflicts", static_cast<double>(st.repair.sat_conflicts));
  layers->Add("sat.solve_calls",
              static_cast<double>(st.repair.sat_solve_calls));
  layers->Add("sat.inprocess_runs",
              static_cast<double>(st.repair.sat_inprocess_runs));
}

Outcome ExecOp(const ColdOp& op, const Instance& inst, uint64_t request_id,
               Layers* layers, PhaseCheck* phases) {
  Outcome out;
  dr::Database db = *inst.db;
  Stopwatch latency;
  Stopwatch resolve;
  dr::StatusOr<dr::RepairEngine> engine = [&] {
    Span span("datalog.resolve", request_id);
    return dr::RepairEngine::Create(&db, inst.program);
  }();
  const double resolve_ms = resolve.Ms();
  if (!engine.ok()) {
    out.failed = true;
    out.latency_ms = latency.Ms();
    return out;
  }
  if (op.kind == ColdOp::Kind::kRepair) {
    dr::RepairRequest request(op.semantics);
    request.options.budget_seconds = op.budget_seconds;
    dr::RepairOutcome outcome;
    {
      Span span("repair.execute", request_id);
      outcome = engine->Execute(request);
    }
    out.latency_ms = latency.Ms();
    out.termination = outcome.termination;
    out.failed = !outcome.ok() ||
                 outcome.termination != dr::TerminationReason::kComplete;
    out.repair = std::move(outcome.result);
    out.work = "deleted=" + std::to_string(out.repair.size()) +
               " solve_calls=" +
               std::to_string(out.repair.stats.sat_solve_calls);
    AccountRepair(out.repair.stats, resolve_ms, out.latency_ms, layers,
                  phases);
  } else {
    dr::CqaRequest request(op.semantics, op.query);
    request.options.budget_seconds = op.budget_seconds;
    dr::CqaResult result;
    {
      Span span("cqa.answer", request_id);
      result = dr::AnswerQuery(&engine.value(), request);
    }
    out.latency_ms = latency.Ms();
    out.termination = result.termination;
    out.failed = !result.ok() ||
                 result.termination != dr::TerminationReason::kComplete ||
                 result.stats.undecided_answers > 0;
    out.answers = std::move(result.answers);
    char work[160];
    std::snprintf(work, sizeof(work),
                  "answers=%zu certain=%llu sliced_solves=%llu "
                  "cone_clauses=%llu entail=%.1fms",
                  out.answers.size(),
                  static_cast<unsigned long long>(result.stats.certain_answers),
                  static_cast<unsigned long long>(
                      result.stats.slice.sliced_solve_calls),
                  static_cast<unsigned long long>(
                      result.stats.slice.cone_clauses),
                  result.stats.entail_seconds * 1e3);
    out.work = work;
    AccountCqa(result.stats, resolve_ms, out.latency_ms, layers, phases);
  }
  return out;
}

bool SameOutcome(const Outcome& a, const Outcome& b) {
  if (a.repair.deleted != b.repair.deleted) return false;
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].values != b.answers[i].values ||
        a.answers[i].certain != b.answers[i].certain ||
        a.answers[i].possible != b.answers[i].possible) {
      return false;
    }
  }
  return true;
}

std::string Label(const ColdOp& op, const Instance& inst) {
  return inst.name + "/" + op.semantics +
         (op.kind == ColdOp::Kind::kCqa ? "/cqa " + op.query : "");
}

/// First live tuple of `db` that `result` does not delete.
dr::TupleId OutsideTuple(const dr::Database& db,
                         const dr::RepairResult& result) {
  for (const dr::TupleId& t : db.LiveTupleIds()) {
    if (!result.Contains(t)) return t;
  }
  return {};
}

/// Deliberately corrupts one kept outcome so the named check must fail.
void Corrupt(const std::string& what, const std::vector<ColdOp>& ops,
             const std::vector<Instance>& instances,
             std::vector<Outcome>* first) {
  auto find = [&](ColdOp::Kind kind, const char* semantics) -> int {
    for (size_t i = 0; i < ops.size(); ++i) {
      const Outcome& o = (*first)[i];
      if (ops[i].kind != kind || ops[i].semantics != semantics ||
          o.failed) {
        continue;
      }
      if (kind == ColdOp::Kind::kRepair && o.repair.deleted.empty()) {
        continue;
      }
      if (kind == ColdOp::Kind::kCqa && o.answers.empty()) continue;
      return static_cast<int>(i);
    }
    return -1;
  };
  using K = ColdOp::Kind;
  int i = -1;
  if (what == "stabilizing" && (i = find(K::kRepair, "end")) >= 0) {
    (*first)[i].repair.deleted.pop_back();
  } else if (what == "containment" && (i = find(K::kRepair, "stage")) >= 0) {
    // Add a tuple End does not delete; Stage ⊆ End must then fail.
    const Instance& inst = instances[ops[i].instance];
    for (size_t j = 0; j < ops.size(); ++j) {
      if (ops[j].instance == ops[i].instance && ops[j].semantics == "end" &&
          ops[j].kind == K::kRepair) {
        (*first)[i].repair.deleted.push_back(
            OutsideTuple(*inst.db, (*first)[j].repair));
        dr::CanonicalizeResult(&(*first)[i].repair);
      }
    }
  } else if (what == "cardinality" &&
             (i = find(K::kRepair, "independent")) >= 0) {
    // Grow the independent result past every other semantics' size.
    const Instance& inst = instances[ops[i].instance];
    dr::RepairResult& r = (*first)[i].repair;
    for (const dr::TupleId& t : inst.db->LiveTupleIds()) {
      if (!r.Contains(t)) r.deleted.push_back(t);
    }
    dr::CanonicalizeResult(&r);
  } else if (what == "optimal" &&
             (i = find(K::kRepair, "independent")) >= 0) {
    (*first)[i].repair.stats.optimal = false;
  } else if (what == "cqa_end" && (i = find(K::kCqa, "end")) >= 0) {
    (*first)[i].answers[0].certain = !(*first)[i].answers[0].certain;
  } else if (what == "cqa_independent" &&
             (i = find(K::kCqa, "independent")) >= 0) {
    for (dr::CqaAnswer& a : (*first)[i].answers) {
      if (a.certain) {
        a.possible = false;
        break;
      }
    }
  }
  if (i < 0) {
    std::fprintf(stderr, "--corrupt %s: nothing to corrupt\n", what.c_str());
  }
}

/// Every check of the cold workloads, on the first round's outcomes.
class ColdChecker {
 public:
  ColdChecker(const std::vector<ColdOp>& ops,
              const std::vector<Instance>& instances,
              const std::vector<Outcome>& first, Checks* checks)
      : ops_(ops), instances_(instances), first_(first), checks_(checks) {}

  void Run() {
    // Repair results per instance, keyed by semantics.
    std::map<size_t, std::map<std::string, const dr::RepairResult*>> repairs;
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].kind != ColdOp::Kind::kRepair || first_[i].failed) continue;
      repairs[ops_[i].instance][ops_[i].semantics] = &first_[i].repair;
      CheckStabilizing(ops_[i], first_[i].repair);
    }
    for (const auto& [inst, by_sem] : repairs) CheckProp320(inst, by_sem);
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].kind != ColdOp::Kind::kCqa || first_[i].failed) continue;
      CheckCqa(ops_[i], first_[i].answers);
    }
  }

 private:
  void CheckStabilizing(const ColdOp& op, const dr::RepairResult& r) {
    const Instance& inst = instances_[op.instance];
    dr::Database db = *inst.db;
    auto engine = dr::RepairEngine::Create(&db, inst.program);
    checks_->Count();
    checks_->Expect(engine.ok() && dr::IsStabilizingSet(
                                       &db, engine->program(), r.deleted),
                    "stabilizing: " + Label(op, inst) +
                        " result is not a stabilizing set (Def. 3.14)");
  }

  void CheckProp320(
      size_t inst_index,
      const std::map<std::string, const dr::RepairResult*>& by_sem) {
    const std::string& name = instances_[inst_index].name;
    auto get = [&](const char* s) -> const dr::RepairResult* {
      auto it = by_sem.find(s);
      return it == by_sem.end() ? nullptr : it->second;
    };
    const dr::RepairResult* end = get("end");
    const dr::RepairResult* stage = get("stage");
    const dr::RepairResult* step = get("step");
    const dr::RepairResult* ind = get("independent");
    if (end == nullptr || stage == nullptr || step == nullptr) return;
    checks_->Count();
    checks_->Expect(stage->SubsetOf(*end),
                    "containment: " + name + " Stage ⊄ End (Prop. 3.20)");
    checks_->Expect(step->SubsetOf(*end),
                    "containment: " + name + " Step ⊄ End (Prop. 3.20)");
    if (ind == nullptr) return;
    checks_->Expect(ind->size() <= stage->size() &&
                        ind->size() <= step->size(),
                    "cardinality: " + name + " |Ind| = " +
                        std::to_string(ind->size()) + " exceeds |Stage| = " +
                        std::to_string(stage->size()) + " or |Step| = " +
                        std::to_string(step->size()) + " (Prop. 3.20)");
    checks_->Expect(ind->stats.optimal,
                    "optimal: " + name + " independent not proven minimum");
  }

  /// The deletion set of `semantics` on `inst`, computed afresh.
  const std::vector<dr::TupleId>& RepairOf(size_t inst,
                                           const std::string& semantics) {
    auto key = std::make_pair(inst, semantics);
    auto it = repair_cache_.find(key);
    if (it != repair_cache_.end()) return it->second;
    dr::Database db = *instances_[inst].db;
    auto engine = dr::RepairEngine::Create(&db, instances_[inst].program);
    std::vector<dr::TupleId> deleted;
    if (engine.ok()) {
      dr::RepairOutcome out = engine->Execute(dr::RepairRequest(semantics));
      deleted = out.result.deleted;
    }
    return repair_cache_[key] = deleted;
  }

  /// Q(D \ S) for the deletion set S, by plain query evaluation.
  std::set<dr::Tuple> EvalWithout(size_t inst, const std::string& query,
                                  const std::vector<dr::TupleId>& deleted) {
    dr::Database db = *instances_[inst].db;
    dr::InstanceView view = db.SnapshotView();
    for (const dr::TupleId& t : deleted) view.MarkDeleted(t);
    auto q = dr::ParseQuery(query);
    std::set<dr::Tuple> out;
    if (!q.ok() || !dr::ResolveQuery(&q.value(), db).ok()) return out;
    for (dr::Tuple& t : dr::EvalQuery(&view, *q)) out.insert(std::move(t));
    return out;
  }

  void CheckCqa(const ColdOp& op, const std::vector<dr::CqaAnswer>& answers) {
    const Instance& inst = instances_[op.instance];
    const std::set<dr::Tuple> eval =
        EvalWithout(op.instance, op.query, RepairOf(op.instance, op.semantics));
    std::set<dr::Tuple> certain, possible, all;
    for (const dr::CqaAnswer& a : answers) {
      all.insert(a.values);
      if (a.certain) certain.insert(a.values);
      if (a.possible) possible.insert(a.values);
    }
    auto subset = [](const std::set<dr::Tuple>& a,
                     const std::set<dr::Tuple>& b) {
      return std::includes(b.begin(), b.end(), a.begin(), a.end());
    };
    checks_->Count();
    const std::string label = Label(op, inst);
    if (op.semantics == "independent") {
      checks_->Expect(subset(certain, eval) && subset(eval, possible) &&
                          subset(possible, all),
                      "cqa_independent: " + label +
                          " violates certain ⊆ Q(D \\ Ind) ⊆ possible ⊆ "
                          "answers");
    } else {
      checks_->Expect(certain == eval && possible == eval,
                      "cqa_" + op.semantics + ": " + label +
                          " certain/possible differ from Q(D \\ S)");
    }
  }

  const std::vector<ColdOp>& ops_;
  const std::vector<Instance>& instances_;
  const std::vector<Outcome>& first_;
  Checks* checks_;
  std::map<std::pair<size_t, std::string>, std::vector<dr::TupleId>>
      repair_cache_;
};

}  // namespace

double FirstTouchMs(const Instance& inst, const std::string& semantics) {
  dr::Database db = *inst.db;
  auto engine = dr::RepairEngine::Create(&db, inst.program);
  if (!engine.ok()) return 0;
  Stopwatch first;
  engine->Execute(dr::RepairRequest(semantics));
  const double first_ms = first.Ms();
  std::vector<double> repeats;
  for (int r = 0; r < kFirstTouchRepeats; ++r) {
    Stopwatch again;
    engine->Execute(dr::RepairRequest(semantics));
    repeats.push_back(again.Ms());
  }
  return first_ms - Median(repeats);
}

int RunCold(const Options& opts,
            const std::function<ColdSetup(Layers*)>& make_setup,
            double tail_pct) {
  RunReport report;
  report.tail_pct = tail_pct;
  Layers layers;
  Checks checks;
  PhaseCheck phases;
  SampleLog log;

  // Set-up: generate and load the instances, resolve every program.
  ColdSetup setup;
  std::vector<double> setup_s, generate_ms;
  SpanLog::Get().Enable(opts.trace);
  Stopwatch setup_total;
  for (int rep = 0;
       rep < kSetupRepeats || setup_total.Seconds() < kSetupSeconds; ++rep) {
    Span span("workload.setup");
    Stopwatch sw;
    Layers gen;
    setup = make_setup(&gen);
    for (const Instance& inst : setup.instances) {
      dr::Database db = *inst.db;
      auto engine = dr::RepairEngine::Create(&db, inst.program);
      if (!engine.ok()) {
        std::fprintf(stderr, "%s: %s\n", inst.name.c_str(),
                     engine.status().ToString().c_str());
        return 1;
      }
    }
    setup_s.push_back(sw.Seconds());
    generate_ms.push_back(gen.Get("workload.generate_ms"));
  }
  report.setup_s = Median(setup_s);
  for (const Instance& inst : setup.instances) {
    std::printf("instance %-6s %s\n", inst.name.c_str(),
                LiveCounts(*inst.db).c_str());
  }

  // Measured phase: whole cycles of rounds until the time is up. A trace
  // run records spans on every second cycle only, so the untraced cycles
  // between them give the tracing overhead.
  const std::vector<ColdOp>& ops = setup.ops;
  const int variants = setup.variants;
  std::vector<Outcome> first(ops.size());
  std::vector<bool> ran(ops.size(), false);
  std::vector<double> traced_cycle_ms, plain_cycle_ms;
  uint64_t request_id = 0;
  Stopwatch phase;
  Stopwatch cycle;
  // A trace run needs a traced and an untraced cycle.
  const uint64_t min_rounds = (opts.trace ? 2 : 1) * variants;
  while (report.rounds % variants != 0 || report.rounds < min_rounds ||
         phase.Seconds() < opts.seconds) {
    const int variant = static_cast<int>(report.rounds % variants);
    const bool traced = opts.trace && (report.rounds / variants) % 2 == 1;
    SpanLog::Get().Enable(traced);
    if (variant == 0) cycle = Stopwatch();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].variant != variant) continue;
      const Instance& inst = setup.instances[ops[i].instance];
      Outcome o = ExecOp(ops[i], inst, ++request_id, &layers, &phases);
      const Cls cls = ops[i].kind == ColdOp::Kind::kCqa
                          ? Cls::kCqa
                          : RepairCls(ops[i].semantics);
      log.Add(cls, o.latency_ms, o.failed, report.rounds / variants);
      if (!ran[i]) {
        ran[i] = true;
        if (opts.verbose) {
          std::fprintf(stderr, "%9.3f ms  %s  %s\n", o.latency_ms,
                       Label(ops[i], inst).c_str(), o.work.c_str());
        }
        if (o.failed) {
          std::printf("failed request: %s (%s)\n", Label(ops[i], inst).c_str(),
                      dr::TerminationReasonName(o.termination));
        }
        first[i] = std::move(o);
      } else if (!o.failed && !first[i].failed) {
        checks.Count();
        checks.Expect(SameOutcome(first[i], o),
                      "determinism: " + Label(ops[i], inst) +
                          " changed between rounds");
      }
    }
    ++report.rounds;
    if (variant == variants - 1) {
      const double ms = cycle.Ms();
      (traced ? traced_cycle_ms : plain_cycle_ms).push_back(ms);
      report.cycle_s.push_back(ms / 1e3);
    }
  }
  report.measured_s = phase.Seconds();
  SpanLog::Get().Enable(false);

  if (!opts.corrupt.empty()) {
    Corrupt(opts.corrupt, ops, setup.instances, &first);
  }
  ColdChecker(ops, setup.instances, first, &checks).Run();

  // Per-layer metrics are per round; set-up ones are medians.
  Layers out;
  const double rounds = static_cast<double>(report.rounds);
  for (const auto& [name, value] : layers.values()) {
    out.Set(name, value / rounds);
  }
  out.Set("workload.generate_ms", Median(generate_ms));
  if (opts.trace) {
    double first_touch = 0;
    for (const ColdOp& op : ops) {
      if (op.kind == ColdOp::Kind::kRepair && op.budget_seconds == 0 &&
          (op.semantics == "end" || op.semantics == "stage")) {
        first_touch += FirstTouchMs(setup.instances[op.instance], op.semantics);
      }
    }
    out.Set("relation.first_touch_ms", first_touch / variants);
    if (!traced_cycle_ms.empty() && !plain_cycle_ms.empty()) {
      out.Set("trace.overhead_pct", 100.0 * (Median(traced_cycle_ms) /
                                                 Median(plain_cycle_ms) -
                                             1.0));
    }
    out.Set("trace.spans", static_cast<double>(SpanLog::Get().size()));
    if (!opts.trace_out.empty() &&
        !SpanLog::Get().WriteChrome(opts.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
    }
  }
  PrintResult(opts, report, log, out, checks, phases);
  return 0;
}

}  // namespace perfbench
