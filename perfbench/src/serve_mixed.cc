// serve_mixed: what a service client sees. An in-process RepairServer
// (one worker, warm incremental engine) over a PersistentStore holding MAS
// with the program-20 cascade, driven by one closed-loop client
// connection. Every round sends the same requests in the same order:
// repairs under all four semantics, warm end and independent CQA, and
// single-tuple delete/reinsert updates of seeded tuples, each delete
// followed later by its reinsert so that at most one tuple is ever
// missing. The codec, the admission queue, the store lock, the WAL and
// the warm engine do the work. Every round is a cycle of its own.
//
// With 4 client connections the class means spread 20-30% between runs
// on a 4-vCPU VM, too wide for the benchmark's bounds. One client keeps
// one request in flight, so the server gets one worker: with four, the
// worker that took a request varied from run to run.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <set>

#include "cold.h"
#include "common/json_writer.h"
#include "cqa/cqa.h"
#include "repair/repair_engine.h"
#include "service/client.h"
#include "service/report.h"
#include "service/request_codec.h"
#include "service/server.h"
#include "service/store.h"

namespace perfbench {

namespace dr = deltarepair;
namespace fs = std::filesystem;

namespace {

constexpr double kMasScale = 2.0;
constexpr int kProgram = 20;
// The served instance is the same for every --seed (the seed picks the
// updated tuples): its hub-dependent cost would otherwise move every
// class mean by 10-20% between seeds, and one server serves one instance.
constexpr uint64_t kInstanceSeed = 42;
constexpr int kWorkers = 1;
constexpr int kRepairsPerSemantics = 3;
constexpr int kCqaPerKind = 2;
// Each round deletes and reinserts kUpdatesPerRound tuples drawn from a
// seeded pool of kUpdatePool Author rows.
constexpr int kUpdatePool = 12;
constexpr int kUpdatesPerRound = 4;
constexpr const char* kSemantics[] = {"end", "stage", "step", "independent"};
constexpr const char* kCqaSemantics[] = {"end", "independent"};
constexpr const char* kQueries[] = {
    "Q(n) :- Author(a, n, o), Writes(a, p).",
    "Q(p, t) :- Publication(p, t), Writes(a, p), Author(a, n, o).",
};

/// One request of the round's list. Reads are identified by `key`
/// (semantics and query), which names the cold result they must match.
struct ServeOp {
  enum class Kind { kRepair, kCqa, kDelete, kInsert };
  Kind kind;
  std::string semantics;
  std::string query;
  size_t update = 0;  // index into the update tuples
  std::string key() const { return semantics + "|" + query; }
};

/// A tuple the update cycle deletes and reinserts.
struct UpdateTuple {
  uint32_t relation;
  dr::Tuple values;
};

/// Response text up to its "stats" block: everything that must not depend
/// on timing.
std::string Verdict(const std::string& json) {
  const size_t at = json.find("\"stats\"");
  return at == std::string::npos ? json : json.substr(0, at);
}

/// Numeric field `key` inside the response's "stats" object (0 if absent).
double StatField(const std::string& json, const char* key) {
  const size_t stats = json.find("\"stats\"");
  if (stats == std::string::npos) return 0;
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = json.find(needle, stats);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

bool Undecided(const std::string& json) {
  return StatField(json, "undecided_answers") > 0 ||
         json.find("\"termination\":\"complete\"") == std::string::npos;
}

/// Folds the phases a served read reports into the per-layer sums and
/// returns the server-reported phase total in ms.
double AccountServed(const ServeOp& op, const std::string& json,
                     double latency_ms, Layers* layers, PhaseCheck* phases) {
  auto f = [&](const char* key) { return StatField(json, key); };
  const double total_ms = f("total_seconds") * 1e3;
  layers->Add("datalog.assignments", f("assignments"));
  layers->Add("sat.cnf_clauses", f("cnf_clauses"));
  layers->Add("sat.conflicts", f("sat_conflicts"));
  layers->Add("sat.solve_calls", f("sat_solve_calls"));
  layers->Add("sat.inprocess_runs", f("sat_inprocess_runs"));
  if (op.kind == ServeOp::Kind::kRepair) {
    const double eval = f("eval_seconds") * 1e3;
    const double prov = f("process_prov_seconds") * 1e3;
    const double solve = f("solve_seconds") * 1e3;
    const double traverse = f("traverse_seconds") * 1e3;
    layers->Add("datalog.eval_ms", eval);
    layers->Add("provenance.process_ms", prov);
    layers->Add("sat.solve_ms", solve);
    layers->Add("repair.traverse_ms", traverse);
    layers->Add("repair.fixpoint_rounds", f("iterations"));
    layers->Add("provenance.graph_nodes", f("graph_nodes"));
    layers->Add("repair.other_ms",
                phases->Other("served repair", latency_ms,
                              eval + prov + solve + traverse));
  } else {
    const double ground = f("ground_seconds") * 1e3;
    const double space = f("space_seconds") * 1e3;
    const double entail = f("entail_seconds") * 1e3;
    layers->Add("cqa.ground_ms", ground);
    layers->Add("cqa.space_ms", space);
    layers->Add("cqa.entail_ms", entail);
    layers->Add("cqa.other_ms",
                phases->Other("served cqa", latency_ms,
                              ground + space + entail));
    layers->Add("cqa.sliced_solves", f("sliced_solve_calls"));
    layers->Add("cqa.slice_fallbacks", f("slice_fallbacks"));
    layers->Add("cqa.undecided_answers", f("undecided_answers"));
    layers->Add("provenance.cone_ms", f("cone_seconds") * 1e3);
    layers->Add("provenance.slice_ms", f("slice_seconds") * 1e3);
    layers->Add("provenance.cone_clauses", f("cone_clauses"));
  }
  return total_ms;
}

/// The cold library's response text for one read on `db`'s current state.
std::string ColdVerdict(dr::Database* db, const dr::Program& program,
                        const ServeOp& op) {
  auto engine = dr::RepairEngine::Create(db, program);
  if (!engine.ok()) return "resolve failed";
  dr::JsonWriter json;
  if (op.kind == ServeOp::Kind::kRepair) {
    dr::RepairOutcome outcome =
        engine->Execute(dr::RepairRequest(op.semantics));
    dr::WriteOutcomeJson(json, *db, outcome, false);
  } else {
    dr::CqaResult result = dr::AnswerQuery(
        &engine.value(), dr::CqaRequest(op.semantics, op.query));
    dr::WriteCqaResultJson(json, *db, result);
  }
  return Verdict(json.str());
}

struct Setup {
  Instance inst;
  std::vector<UpdateTuple> updates;
  std::string dir;
  std::unique_ptr<dr::RepairServer> server;
  double generate_ms = 0;
  double store_open_ms = 0;
  double inc_build_ms = 0;
};

/// Sends one request and returns the response text (or the error);
/// `failed` is set on an error, a non-complete termination or an
/// undecided verdict.
std::string Call(int port, const ServeOp& op,
                 const std::vector<UpdateTuple>& updates,
                 const dr::Database& db, bool* failed) {
  dr::FrameType type;
  std::string payload;
  switch (op.kind) {
    case ServeOp::Kind::kRepair:
      type = dr::FrameType::kRepairRequest;
      payload = dr::EncodeRepairRequest(dr::RepairRequest(op.semantics));
      break;
    case ServeOp::Kind::kCqa:
      type = dr::FrameType::kCqaRequest;
      payload =
          dr::EncodeCqaRequest(dr::CqaRequest(op.semantics, op.query));
      break;
    default: {
      type = dr::FrameType::kUpdateRequest;
      dr::UpdateRequest update;
      update.op = op.kind == ServeOp::Kind::kInsert ? dr::WalOp::kInsert
                                                     : dr::WalOp::kDelete;
      const UpdateTuple& u = updates[op.update];
      update.relation = db.relation(u.relation).schema().name();
      update.tuples = {u.values};
      payload = dr::EncodeUpdateRequest(update);
    }
  }
  dr::StatusOr<std::string> response =
      dr::CallServerJson(port, type, payload);
  if (!response.ok()) {
    *failed = true;
    return response.status().ToString();
  }
  *failed = (op.kind == ServeOp::Kind::kRepair ||
             op.kind == ServeOp::Kind::kCqa) &&
            Undecided(*response);
  return std::move(response).value();
}

/// Generates the instance, writes and reopens the store, starts the
/// server and sends one warm-up request of every read kind.
bool MakeSetup(const Options& opts, int rep, Setup* s) {
  Stopwatch generate;
  std::vector<Instance> mas =
      MasInstances(kInstanceSeed, kMasScale, {kProgram});
  s->inst = std::move(mas[0]);
  s->generate_ms = generate.Ms();

  // Update tuples: seeded Author rows, whose deletion changes the
  // cascade's repairs and answers.
  const dr::Database& db = *s->inst.db;
  const int author = db.RelationIndex("Author");
  std::vector<dr::TupleId> authors;
  for (const dr::TupleId& t : db.LiveTupleIds()) {
    if (static_cast<int>(t.relation) == author) authors.push_back(t);
  }
  std::mt19937_64 rng(Mix(opts.seed, 6));
  std::shuffle(authors.begin(), authors.end(), rng);
  s->updates.clear();
  for (int i = 0; i < kUpdatePool; ++i) {
    s->updates.push_back(
        {static_cast<uint32_t>(author), db.tuple(authors[i])});
  }

  s->dir = opts.work_dir + "/serve-" + std::to_string(getpid()) + "-" +
           std::to_string(rep);
  std::error_code ec;
  fs::remove_all(s->dir, ec);
  fs::create_directories(s->dir, ec);
  {
    auto created = dr::PersistentStore::Create(s->dir, db);
    if (!created.ok()) {
      std::fprintf(stderr, "store: %s\n",
                   created.status().ToString().c_str());
      return false;
    }
  }
  Stopwatch open;
  auto store = [&] {
    Span span("service.store_open");
    return dr::PersistentStore::Open(s->dir);
  }();
  s->store_open_ms = open.Ms();
  if (!store.ok()) {
    std::fprintf(stderr, "open: %s\n", store.status().ToString().c_str());
    return false;
  }
  dr::ServerOptions options;
  options.workers = kWorkers;
  auto server = dr::RepairServer::Start(std::move(store).value(),
                                        s->inst.program, options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return false;
  }
  s->server = std::move(server).value();

  // Warm-up; the first request builds the warm engine's state.
  bool failed = false;
  auto warm = [&](const ServeOp& op) {
    bool f = false;
    Call(s->server->port(), op, s->updates, db, &f);
    failed |= f;
  };
  Stopwatch build;
  warm({ServeOp::Kind::kRepair, "independent", "", 0});
  s->inc_build_ms = build.Ms();
  for (const char* sem : kSemantics) {
    warm({ServeOp::Kind::kRepair, sem, "", 0});
  }
  for (const char* sem : kCqaSemantics) {
    for (const char* q : kQueries) warm({ServeOp::Kind::kCqa, sem, q, 0});
  }
  return !failed;
}

/// Round `round`'s request list. The order is the same every round —
/// the classes take turns, and every update pair encloses the same reads —
/// so how often the warm engine can reuse a result does not depend on the
/// seed; the seed picks which pool tuples each round updates. Each update
/// pair takes an equal share of the reads, the first half of it sent
/// while the tuple is missing.
std::vector<ServeOp> MakeRound(uint64_t seed, uint64_t round) {
  std::vector<ServeOp> repairs, cqas;
  for (int i = 0; i < kRepairsPerSemantics; ++i) {
    for (const char* sem : kSemantics) {
      repairs.push_back({ServeOp::Kind::kRepair, sem, "", 0});
    }
  }
  for (int i = 0; i < kCqaPerKind; ++i) {
    for (const char* q : kQueries) {
      for (const char* sem : kCqaSemantics) {
        cqas.push_back({ServeOp::Kind::kCqa, sem, q, 0});
      }
    }
  }
  // Three repairs, then two CQA requests, until both lists are used up.
  std::vector<ServeOp> reads;
  for (size_t r = 0, q = 0; r < repairs.size() || q < cqas.size();) {
    for (int k = 0; k < 3 && r < repairs.size(); ++k) {
      reads.push_back(repairs[r++]);
    }
    for (int k = 0; k < 2 && q < cqas.size(); ++k) reads.push_back(cqas[q++]);
  }
  std::mt19937_64 rng(Mix(Mix(seed, 7), round));
  std::vector<size_t> pool(kUpdatePool);
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  std::shuffle(pool.begin(), pool.end(), rng);
  const size_t share = reads.size() / kUpdatesPerRound;
  std::vector<ServeOp> ops;
  size_t next = 0;
  for (int u = 0; u < kUpdatesPerRound; ++u) {
    const size_t end = u + 1 == kUpdatesPerRound ? reads.size() : next + share;
    const size_t missing = next + (share + 1) / 2;
    ops.push_back({ServeOp::Kind::kDelete, "", "", pool[u]});
    for (; next < end; ++next) {
      if (next == missing) {
        ops.push_back({ServeOp::Kind::kInsert, "", "", pool[u]});
      }
      ops.push_back(reads[next]);
    }
    if (missing >= end) {
      ops.push_back({ServeOp::Kind::kInsert, "", "", pool[u]});
    }
  }
  return ops;
}

Cls OpCls(const ServeOp& op) {
  switch (op.kind) {
    case ServeOp::Kind::kRepair: return RepairCls(op.semantics);
    case ServeOp::Kind::kCqa: return Cls::kCqa;
    default: return Cls::kUpdate;
  }
}

/// Live tuples of `db` as (relation, values) pairs.
std::set<std::pair<uint32_t, dr::Tuple>> LiveSet(const dr::Database& db) {
  std::set<std::pair<uint32_t, dr::Tuple>> out;
  for (const dr::TupleId& t : db.LiveTupleIds()) {
    out.emplace(t.relation, db.tuple(t));
  }
  return out;
}

}  // namespace

int RunServeMixed(const Options& opts) {
  // One malloc arena for every thread: with one per thread the peak
  // resident set depended on which arena each server thread drew and
  // spread 7% between runs of the same code.
  mallopt(M_ARENA_MAX, 1);
  // Every thread of the process (the server's threads start later and
  // inherit this) runs on the CPU the process started on. A request passes between
  // the client and server threads three times; across CPUs each pass
  // wakes an idle vCPU, which waits for the hypervisor to schedule it,
  // and under load on the host that wait doubled end_ms. On one CPU a
  // pass is a context switch. One request is in flight at a time, so
  // nothing runs in parallel that could use a second CPU.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(sched_getcpu(), &cpus);
  sched_setaffinity(0, sizeof(cpus), &cpus);
  RunReport report;
  report.tail_pct = 95.0;
  Layers layers;
  Checks checks;
  PhaseCheck phases;
  SampleLog log;

  // Set-up, repeated; all but the last server are shut down again.
  Setup s;
  std::vector<double> setup_s, generate_ms, open_ms, build_ms;
  SpanLog::Get().Enable(opts.trace);
  Stopwatch setup_total;
  for (int rep = 0;
       rep < kSetupRepeats || setup_total.Seconds() < kSetupSeconds; ++rep) {
    if (s.server != nullptr) {
      s.server->Drain();
      s.server.reset();
      std::error_code ec;
      fs::remove_all(s.dir, ec);
    }
    Stopwatch sw;
    if (!MakeSetup(opts, rep, &s)) return 1;
    setup_s.push_back(sw.Seconds());
    generate_ms.push_back(s.generate_ms);
    open_ms.push_back(s.store_open_ms);
    build_ms.push_back(s.inc_build_ms);
  }
  report.setup_s = Median(setup_s);
  const dr::Database& base = *s.inst.db;
  std::printf("instance mas%d %s; update pool of %d tuples, 1 client, "
              "%d workers\n",
              kProgram, LiveCounts(base).c_str(), kUpdatePool, kWorkers);

  const int port = s.server->port();
  const dr::RepairServer::Stats stats0 = s.server->stats();
  const dr::IncrementalEngine::Stats inc0 = s.server->incremental_stats();
  std::error_code ec;
  const std::string wal_path = dr::PersistentStore::WalPath(s.dir);
  const uint64_t wal0 = fs::file_size(wal_path, ec);

  // Responses seen per read key, checked against cold results afterwards.
  std::map<std::string, std::set<std::string>> seen;
  std::map<std::string, ServeOp> read_ops;
  double read_latency_ms = 0, read_reported_ms = 0, update_ms = 0;
  uint64_t reads = 0, updates = 0;

  // Whole rounds until the time is up. A trace run records spans on every
  // second round only, so the untraced rounds between give the overhead.
  std::vector<double> traced_round_ms, plain_round_ms;
  uint64_t request_id = 0;
  Stopwatch phase;
  while (report.rounds == 0 || (opts.trace && report.rounds < 2) ||
         phase.Seconds() < opts.seconds) {
    const bool traced = opts.trace && report.rounds % 2 == 1;
    SpanLog::Get().Enable(traced);
    Stopwatch round;
    for (const ServeOp& op : MakeRound(opts.seed, report.rounds)) {
      bool failed = false;
      Stopwatch latency;
      std::string response;
      {
        Span span("service.call", ++request_id);
        response = Call(port, op, s.updates, base, &failed);
      }
      const double ms = latency.Ms();
      log.Add(OpCls(op), ms, failed, report.rounds);
      if (op.kind == ServeOp::Kind::kRepair ||
          op.kind == ServeOp::Kind::kCqa) {
        reads += 1;
        read_latency_ms += ms;
        if (!failed) {
          read_reported_ms += AccountServed(op, response, ms, &layers,
                                            &phases);
          seen[op.key()].insert(Verdict(response));
          read_ops.emplace(op.key(), op);
        }
      } else {
        updates += 1;
        update_ms += ms;
        checks.Expect(!failed, "update: " + response);
      }
    }
    const double round_ms = round.Ms();
    (traced ? traced_round_ms : plain_round_ms).push_back(round_ms);
    report.cycle_s.push_back(round_ms / 1e3);
    ++report.rounds;
  }
  report.measured_s = phase.Seconds();
  SpanLog::Get().Enable(false);

  const dr::RepairServer::Stats stats1 = s.server->stats();
  const dr::IncrementalEngine::Stats inc1 = s.server->incremental_stats();
  const uint64_t wal1 = fs::file_size(wal_path, ec);

  // Durability: one more acknowledged delete, drain, reopen from disk.
  bool failed = false;
  const ServeOp last_delete{ServeOp::Kind::kDelete, "", "", 0};
  std::string ack = Call(port, last_delete, s.updates, base, &failed);
  checks.Expect(!failed, "update: final delete refused: " + ack);
  s.server->Drain();
  s.server.reset();
  auto reopened = dr::PersistentStore::Open(s.dir);
  checks.Count();
  if (!reopened.ok()) {
    checks.Fail("store_reopen: " + reopened.status().ToString());
  } else {
    dr::Database expected = base;
    expected.ApplyUpdate(s.updates[0].relation, false,
                         {s.updates[0].values});
    dr::Database& got = (*reopened)->db();
    if (opts.corrupt == "store_reopen") {
      got.ApplyUpdate(s.updates[0].relation, true, {s.updates[0].values});
    }
    checks.Expect(LiveSet(got) == LiveSet(expected),
                  "store_reopen: reopened store differs from the "
                  "acknowledged updates");
  }

  // Every response must equal the cold result on some state the update
  // cycle can produce: the base instance or the base minus one tuple.
  if (opts.corrupt == "serve_response" && !seen.empty()) {
    std::set<std::string>& v = seen.begin()->second;
    std::string bad = *v.begin() + " ";
    v.insert(bad);
  }
  // State 0 is the base instance, state k the base minus update tuple
  // k - 1; cold results are computed on demand per (key, state).
  auto state = [&](size_t k) {
    dr::Database db = base;
    if (k > 0) {
      const UpdateTuple& u = s.updates[k - 1];
      db.ApplyUpdate(u.relation, false, {u.values});
    }
    return db;
  };
  for (const auto& [key, responses] : seen) {
    std::vector<std::string> cold;
    for (const std::string& r : responses) {
      bool matched = false;
      for (size_t k = 0; k <= s.updates.size() && !matched; ++k) {
        if (k == cold.size()) {
          dr::Database db = state(k);
          cold.push_back(ColdVerdict(&db, s.inst.program, read_ops.at(key)));
        }
        matched = cold[k] == r;
      }
      checks.Count();
      checks.Expect(matched, "serve_response: a response to " + key +
                                 " matches no cold result of a reachable "
                                 "state");
    }
  }

  // Per-layer metrics: per round, except service times (per request) and
  // set-up ones (medians).
  Layers out;
  const double rounds = static_cast<double>(report.rounds);
  for (const auto& [name, value] : layers.values()) {
    out.Set(name, value / rounds);
  }
  const double served = static_cast<double>(stats1.served - stats0.served);
  const double queue_ms =
      served > 0
          ? (stats1.queue_wait_seconds - stats0.queue_wait_seconds) * 1e3 /
                served
          : 0;
  out.Set("service.queue_wait_ms", queue_ms);
  if (reads > 0) {
    out.Set("service.execute_ms",
            read_reported_ms / static_cast<double>(reads));
    out.Set("service.overhead_ms",
            (read_latency_ms - read_reported_ms) / static_cast<double>(reads) -
                queue_ms);
  }
  if (updates > 0) {
    out.Set("service.update_ms", update_ms / static_cast<double>(updates));
  }
  if (updates > 0) {
    out.Set("service.wal_bytes",
            static_cast<double>(wal1 - wal0) / static_cast<double>(updates));
  }
  out.Set("service.store_open_ms", Median(open_ms));
  out.Set("service.inc_build_ms", Median(build_ms));
  out.Set("service.inc_syncs",
          static_cast<double>(inc1.syncs - inc0.syncs) / rounds);
  out.Set("service.inc_cold_rebuilds",
          static_cast<double>(inc1.cold_rebuilds - inc0.cold_rebuilds) /
              rounds);
  out.Set("service.inc_cold_repairs",
          static_cast<double>(inc1.cold_repairs - inc0.cold_repairs) / rounds);
  const double hits = static_cast<double>(inc1.verdict_cache_hits -
                                          inc0.verdict_cache_hits);
  const double misses = static_cast<double>(inc1.verdict_cache_misses -
                                            inc0.verdict_cache_misses);
  out.Set("service.inc_verdict_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0);
  const double reused = static_cast<double>(inc1.minones_components_reused -
                                            inc0.minones_components_reused);
  const double solved = static_cast<double>(inc1.minones_components_solved -
                                            inc0.minones_components_solved);
  out.Set("service.inc_components_reused_ratio",
          reused + solved > 0 ? reused / (reused + solved) : 0);
  out.Set("workload.generate_ms", Median(generate_ms));
  if (opts.trace) {
    out.Set("relation.first_touch_ms", FirstTouchMs(s.inst, "end") +
                                           FirstTouchMs(s.inst, "stage"));
    if (!traced_round_ms.empty() && !plain_round_ms.empty()) {
      out.Set("trace.overhead_pct", 100.0 * (Median(traced_round_ms) /
                                                 Median(plain_round_ms) -
                                             1.0));
    }
    out.Set("trace.spans", static_cast<double>(SpanLog::Get().size()));
    if (!opts.trace_out.empty() &&
        !SpanLog::Get().WriteChrome(opts.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
    }
  }
  fs::remove_all(s.dir, ec);
  PrintResult(opts, report, log, out, checks, phases);
  return 0;
}

}  // namespace perfbench
