#include "cqa/cqa.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "common/timer.h"
#include "obs/trace.h"
#include "relation/instance_view.h"

namespace deltarepair {

namespace {

/// One answer's pending verdict work (parallel evaluation slot).
struct AnswerTask {
  const Tuple* values = nullptr;
  const AnswerProvenance* prov = nullptr;
  CqaVerdict certain{false, false};
  CqaVerdict possible{true, false};
  bool cached = false;
  std::optional<CqaCounterexample> cex;
};

/// Converts one finished task into its CqaAnswer and folds the
/// per-answer counters (sequential tail — keeps result order sorted).
void AppendAnswer(const CqaRequest& request, AnswerTask& task,
                  CqaResult* result) {
  CqaAnswer answer;
  answer.values = *task.values;
  answer.derivations = task.prov->monomials.size();
  result->stats.monomials += task.prov->monomials.size();
  answer.certain = task.certain.holds;
  answer.certain_decided = task.certain.decided;
  answer.possible = task.possible.holds;
  answer.possible_decided = task.possible.decided;
  answer.decided = (task.certain.decided || !request.certain) &&
                   (task.possible.decided || !request.possible);
  if (task.cex.has_value()) {
    answer.counterexample = std::move(task.cex->deleted);
    answer.counterexample_minimal = task.cex->minimal;
  }
  if (answer.certain) ++result->stats.certain_answers;
  if (answer.possible) ++result->stats.possible_answers;
  if (!answer.decided) ++result->stats.undecided_answers;
  result->answers.push_back(std::move(answer));
}

/// The per-answer verdict protocol, identical on every path: the
/// requested solver checks with the free implications (certain ⇒
/// possible, impossible ⇒ not certain), then the annotate
/// counterexample for non-certain answers (cached ones included).
template <typename Judge>
void EvaluateTask(const CqaRequest& request, Judge* judge, AnswerTask* task,
                  ExecContext* ctx) {
  Span span("cqa.judge_answer");
  span.SetArg("derivations", task->prov->monomials.size());
  if (!task->cached) {
    if (request.certain) {
      task->certain = judge->Certain(*task->prov, ctx);
    }
    if (task->certain.decided && task->certain.holds) {
      // Certain implies possible (repair spaces are non-empty).
      task->possible = {true, true};
    }
    if (request.possible && !task->possible.decided) {
      task->possible = judge->Possible(*task->prov, ctx);
    }
    if (task->possible.decided && !task->possible.holds &&
        !task->certain.decided) {
      // Impossible answers are never certain.
      task->certain = {false, true};
    }
  }
  if (request.annotate &&
      !(task->certain.decided && task->certain.holds)) {
    task->cex = judge->Counterexample(*task->prov, ctx);
  }
}

/// Phase 3, shared by the cold and warm paths: per-answer verdicts in
/// deterministic (sorted) order, with optional cache hooks. When the
/// space hands out judges and options.threads > 1, the solver work fans
/// out across workers (each with its own judge); cache lookups, cache
/// stores and the answer list stay in sorted order, so the report is
/// identical to the sequential path.
void EvaluateAnswers(const CqaRequest& request,
                     std::map<Tuple, AnswerProvenance>& grounded,
                     RepairSpace* space, const CqaAnswerHooks* hooks,
                     ExecContext* ctx, CqaResult* result) {
  Span entail_span("cqa.entail");
  entail_span.SetArg("answers", grounded.size());
  ScopedTimer t(&result->stats.entail_seconds);
  result->answers.reserve(grounded.size());

  space->PrepareJudges(grounded.size());
  std::unique_ptr<AnswerJudge> main_judge = space->NewJudge();
  if (main_judge == nullptr) {
    // Enumerated spaces: direct sequential calls on the space.
    for (auto& [values, prov] : grounded) {
      AnswerTask task;
      task.values = &values;
      task.prov = &prov;
      task.cached = hooks != nullptr && hooks->lookup &&
                    hooks->lookup(values, prov, &task.certain,
                                  &task.possible);
      EvaluateTask(request, space, &task, ctx);
      if (!task.cached && hooks != nullptr && hooks->store) {
        hooks->store(values, prov, task.certain, task.possible);
      }
      AppendAnswer(request, task, result);
    }
    return;
  }

  // Judge-based evaluation. Cache lookups run first, sequentially and
  // in sorted order (hook implementations may be stateful).
  std::vector<AnswerTask> tasks;
  tasks.reserve(grounded.size());
  for (auto& [values, prov] : grounded) {
    AnswerTask task;
    task.values = &values;
    task.prov = &prov;
    task.cached = hooks != nullptr && hooks->lookup &&
                  hooks->lookup(values, prov, &task.certain, &task.possible);
    tasks.push_back(std::move(task));
  }

  size_t workers =
      request.options.threads > 1
          ? std::min<size_t>(request.options.threads, tasks.size())
          : 1;
  if (workers <= 1) {
    for (AnswerTask& task : tasks) {
      EvaluateTask(request, main_judge.get(), &task, ctx);
    }
  } else {
    // Fan the solver work out: workers claim tasks by atomic index,
    // each with its own judge and an ExecContext slaved to the main
    // budget/token. Verdicts land in their task slots; everything
    // order-sensitive happens after the join.
    double remaining = ctx->RemainingSeconds();
    RepairOptions worker_options = request.options;
    worker_options.budget_seconds =
        std::isinf(remaining) ? 0 : std::max(remaining, 1e-9);
    std::atomic<size_t> next{0};
    const uint64_t parent_trace_id = Trace::CurrentTraceId();
    auto work = [&, parent_trace_id]() {
      TraceIdScope trace_scope(parent_trace_id);
      std::unique_ptr<AnswerJudge> judge = space->NewJudge();
      ExecContext worker_ctx(worker_options);
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks.size()) break;
        EvaluateTask(request, judge.get(), &tasks[i], &worker_ctx);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& th : pool) th.join();
    ctx->ShouldStop();  // latch a budget/cancel that tripped meanwhile
  }

  // Sequential tail: cache stores and the answer list, in sorted order.
  for (AnswerTask& task : tasks) {
    if (!task.cached && hooks != nullptr && hooks->store) {
      hooks->store(*task.values, *task.prov, task.certain, task.possible);
    }
    AppendAnswer(request, task, result);
  }
}

/// One request on `view`, shared by the cold and warm entry points:
/// semantics lookup, query parse/resolve, grounding, the repair space,
/// per-answer verdicts and the termination tail. `space` is the warm
/// engine's prepared space, or nullptr to build the semantics' own space
/// from `program` through CqaRegistry (the view is then restored before
/// returning; the warm path only reads it).
CqaResult RunRequest(InstanceView* view, const Program* program,
                     const CqaRequest& request, RepairSpace* space,
                     const CqaAnswerHooks* hooks) {
  Span span(space == nullptr ? "cqa.answer_query" : "cqa.answer_query_warm");
  WallTimer total;
  CqaResult result;
  auto fail = [&result](Status status) {
    result.status = std::move(status);
    result.termination = TerminationReason::kInvalidProgram;
    return result;
  };

  StatusOr<const Semantics*> semantics =
      SemanticsRegistry::Global().Get(request.semantics);
  if (!semantics.ok()) return fail(semantics.status());
  result.semantics = semantics.value()->name();
  result.kind = semantics.value()->kind();
  const RepairSpaceBuilder* builder = nullptr;
  if (space == nullptr) {
    StatusOr<const RepairSpaceBuilder*> found =
        CqaRegistry::Global().Get(request.semantics);
    if (!found.ok()) return fail(found.status());
    builder = found.value();
  }
  StatusOr<Query> query = ParseQuery(request.query);
  if (!query.ok()) return fail(query.status());
  Status resolved = ResolveQuery(&query.value(), view->db());
  if (!resolved.ok()) return fail(resolved);
  result.query_head = query.value().head_name;

  ExecContext ctx(request.options);
  InstanceView::State snapshot;
  if (builder != nullptr) snapshot = view->SaveState();

  // Phase 1: ground the query over the live instance. Monotonicity
  // makes Q(D) a superset of every repair's answer set, and each
  // answer's monomials are its survival DNF. Grounding runs fresh on the
  // warm path too — it is cheap next to space construction, which is
  // exactly what the warm path amortizes.
  std::map<Tuple, AnswerProvenance> grounded;
  {
    Span ground_span("cqa.ground_query");
    ScopedTimer t(&result.stats.ground_seconds);
    grounded = GroundQuery(view, query.value(), &ctx);
  }

  // Phase 2: the semantics' repair space (builders may scratch-mutate
  // the view; restore to the grounding state afterwards).
  std::unique_ptr<RepairSpace> built;
  if (builder != nullptr) {
    Span space_span("cqa.build_space");
    ScopedTimer t(&result.stats.space_seconds);
    built = (*builder)(view, *program, request.options, &ctx);
    view->RestoreState(snapshot);
    space = built.get();
  }
  result.stats.space_repairs = space->NumEnumerated();
  result.stats.repair_size = space->repair_size();
  result.stats.space_exact = space->exact();

  // Phase 3: per-answer verdicts, in deterministic (sorted) order.
  EvaluateAnswers(request, grounded, space, hooks, &ctx, &result);
  space->AddStats(&result.stats.repair);
  space->AddSliceStats(&result.stats.slice);

  if (builder != nullptr) view->RestoreState(snapshot);
  result.stats.answers = result.answers.size();
  result.termination = ctx.reason();
  if (result.termination == TerminationReason::kComplete &&
      !result.stats.space_exact) {
    // An internal cap (the step space's state budget, the Min-Ones
    // work/time limits) truncated the space without tripping the
    // request's own budget; a kComplete report would claim verdicts
    // this run never proved.
    result.termination = TerminationReason::kBudgetExhausted;
  }
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

CqaResult AnswerQueryOnView(InstanceView* view, const Program& program,
                            const CqaRequest& request) {
  return RunRequest(view, &program, request, nullptr, nullptr);
}

}  // namespace

CqaResult AnswerQueryWithSpace(InstanceView* view, const CqaRequest& request,
                               RepairSpace* space,
                               const CqaAnswerHooks* hooks) {
  return RunRequest(view, nullptr, request, space, hooks);
}

std::vector<Tuple> CqaResult::CertainAnswers() const {
  std::vector<Tuple> out;
  for (const CqaAnswer& a : answers) {
    if (a.certain) out.push_back(a.values);
  }
  return out;
}

std::vector<Tuple> CqaResult::PossibleAnswers() const {
  std::vector<Tuple> out;
  for (const CqaAnswer& a : answers) {
    if (a.possible) out.push_back(a.values);
  }
  return out;
}

CqaResult AnswerQuery(RepairEngine* engine, const CqaRequest& request) {
  return AnswerQueryOnView(&engine->db()->base_view(), engine->program(),
                           request);
}

CqaResult AnswerQueryOnSnapshot(RepairEngine* engine,
                                const CqaRequest& request) {
  InstanceView view = engine->db()->SnapshotView();
  return AnswerQueryOnView(&view, engine->program(), request);
}

std::vector<CqaResult> AnswerQueryBatch(
    RepairEngine* engine, const std::vector<CqaRequest>& requests) {
  int threads = engine->default_options().threads;
  for (const CqaRequest& request : requests) {
    threads = std::max(threads, request.options.threads);
  }
  return AnswerQueryBatch(engine, requests, threads);
}

std::vector<CqaResult> AnswerQueryBatch(
    RepairEngine* engine, const std::vector<CqaRequest>& requests,
    int num_threads) {
  std::vector<CqaResult> out(requests.size());
  if (requests.empty()) return out;
  size_t workers = num_threads > 1 ? static_cast<size_t>(num_threads) : 1;
  workers = std::min(workers, requests.size());

  // Same backbone as RepairEngine::RunBatch: thread-local snapshot
  // views over shared storage, dynamic request claiming, outcomes in
  // request order.
  std::atomic<size_t> next{0};
  auto work = [&]() {
    InstanceView view = engine->db()->SnapshotView();
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) break;
      if (workers > 1 && requests[i].options.threads > 1) {
        // The thread budget is spent on batch workers; per-request
        // answer parallelism on top would oversubscribe.
        CqaRequest clamped = requests[i];
        clamped.options.threads = 1;
        out[i] = AnswerQueryOnView(&view, engine->program(), clamped);
      } else {
        out[i] = AnswerQueryOnView(&view, engine->program(), requests[i]);
      }
    }
  };

  if (workers <= 1) {
    work();
    return out;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return out;
}

}  // namespace deltarepair
