// perfbench — gdlog's end-to-end benchmark (see README.md).
//
// Each timed iteration does the work of `gdlog_shell FILE.dl --query P/N`:
// a fresh Engine with default EngineOptions, LoadProgram(text), Run(),
// Query the workload's answer predicate, render every row with
// TupleToString, destroy the engine. The program text is generated from
// --seed before any timing, and the engine sees only that text. Every
// iteration's rendered output is checked against an independent
// bench-side oracle.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-dir D]
//
// --trace 0 prints the end-to-end metrics: medians over the iterations
// that fit in S seconds. --trace 1 runs separate traced iterations
// (obs.enabled) that time every public Engine call from outside, split
// Run() with the engine's phase timers, and replay each relation's rows
// into fresh storage; it prints the per-layer metrics. The last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "baselines/prim.h"
#include "common/hash.h"
#include "common/rng.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "storage/tuple.h"
#include "workload/graph_gen.h"

namespace gdlog::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Order-independent fingerprint of a multiset of output lines: the line
/// count plus two sums of independent 64-bit line hashes.
struct LineSet {
  uint64_t count = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;

  void Add(std::string_view line) {
    ++count;
    sum_a += HashString(line);
    sum_b += Mix64(std::hash<std::string_view>{}(line));
  }
  bool operator==(const LineSet&) const = default;
};

/// Calls `f` on every line of `text` (the trailing newline ends the last).
template <typename F>
void ForEachLine(std::string_view text, F&& f) {
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    f(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

/// An oracle that expects exactly the lines fingerprinted in `expected`.
std::function<std::string(std::string_view)> ExpectLines(LineSet expected) {
  return [expected](std::string_view output) -> std::string {
    LineSet got;
    ForEachLine(output, [&](std::string_view line) { got.Add(line); });
    if (got == expected) return "";
    return "output has " + std::to_string(got.count) + " lines, oracle " +
           std::to_string(expected.count) +
           (got.count == expected.count ? " (contents differ)" : "");
  };
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Sizes keep one iteration to about a tenth of a second and its memory
// to tens of MiB. A run's median is then taken over hundreds of
// iterations, and less of each iteration waits on the last-level cache
// and memory that a shared host's other tenants load.

struct Workload {
  std::string text;    // the whole program: rules and ground facts
  std::string answer;  // answer predicate, queried and rendered
  uint32_t arity = 0;
  /// "" when `output` (the rendered answers) is correct, else the reason.
  std::function<std::string(std::string_view output)> check;
};

// edb_load: a fact-heavy program whose front end dominates. 50k ground
// link/3 facts over symbol nodes, one filter rule keeping ~10% of them.
Workload EdbLoad(uint64_t seed) {
  constexpr uint32_t kFacts = 50'000;
  constexpr uint32_t kNodes = 2'500;
  constexpr uint32_t kMaxCost = 1'000;
  constexpr uint32_t kCheapBelow = 100;
  Workload w;
  w.answer = "cheap";
  w.arity = 2;
  w.text = "cheap(X, Y) <- link(X, Y, C), C < 100.\n";
  Rng rng(seed);
  std::unordered_set<uint64_t> cheap;
  for (uint32_t i = 0; i < kFacts; ++i) {
    const auto a = rng.NextBounded(kNodes);
    const auto b = rng.NextBounded(kNodes);
    const auto c = rng.NextBounded(kMaxCost);
    w.text += "link(n";
    AppendInt(&w.text, static_cast<int64_t>(a));
    w.text += ", n";
    AppendInt(&w.text, static_cast<int64_t>(b));
    w.text += ", ";
    AppendInt(&w.text, static_cast<int64_t>(c));
    w.text += ").\n";
    if (c < kCheapBelow) cheap.insert(a << 32 | b);
  }
  LineSet expected;
  std::string line;
  for (const uint64_t key : cheap) {
    line = "cheap(n";
    AppendInt(&line, static_cast<int64_t>(key >> 32));
    line += ", n";
    AppendInt(&line, static_cast<int64_t>(key & 0xffffffffu));
    line += ").";
    expected.Add(line);
  }
  w.check = ExpectLines(expected);
  return w;
}

// tc_chain: transitive closure of a 500-node chain (E9's shape), with
// node labels and fact order shuffled by the seed. 124,750 derived rows,
// all rendered: storage inserts and output dominate.
Workload TcChain(uint64_t seed) {
  constexpr uint32_t kNodes = 500;
  Workload w;
  w.answer = "tc";
  w.arity = 2;
  w.text =
      "tc(X, Y) <- edge(X, Y).\n"
      "tc(X, Z) <- tc(X, Y), edge(Y, Z).\n";
  Rng rng(seed);
  std::vector<int64_t> label(kNodes);
  std::iota(label.begin(), label.end(), 0);
  rng.Shuffle(&label);
  std::vector<uint32_t> order(kNodes - 1);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  for (const uint32_t i : order) {
    w.text += "edge(";
    AppendInt(&w.text, label[i]);
    w.text += ", ";
    AppendInt(&w.text, label[i + 1]);
    w.text += ").\n";
  }
  // The closure of a chain: exactly the pairs (i, j) with i < j.
  LineSet expected;
  std::string line;
  for (uint32_t i = 0; i < kNodes; ++i) {
    for (uint32_t j = i + 1; j < kNodes; ++j) {
      line = "tc(";
      AppendInt(&line, label[i]);
      line += ", ";
      AppendInt(&line, label[j]);
      line += ").";
      expected.Add(line);
    }
  }
  w.check = ExpectLines(expected);
  return w;
}

/// Splits "name(f1, f2, ...)." into its fields; false when malformed.
bool SplitAtom(std::string_view line, std::string_view name,
               std::vector<std::string_view>* fields) {
  fields->clear();
  if (line.size() < name.size() + 3 || line.substr(0, name.size()) != name ||
      line[name.size()] != '(' || line.substr(line.size() - 2) != ").") {
    return false;
  }
  std::string_view rest =
      line.substr(name.size() + 1, line.size() - name.size() - 3);
  while (true) {
    const size_t comma = rest.find(", ");
    fields->push_back(rest.substr(0, comma));
    if (comma == std::string_view::npos) return true;
    rest.remove_prefix(comma + 2);
  }
}

bool ParseInt(std::string_view s, int64_t* v) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), *v);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

// prim_large: the paper's Example 4 on a connected random graph with
// n = 10k nodes and ~2n undirected edges (~4n g/3 facts). The only
// workload that exercises the choice machinery and next stages.
Workload PrimLarge(uint64_t seed) {
  constexpr uint32_t kNodes = 10'000;
  GraphGenOptions gen;
  gen.seed = seed;
  const Graph graph = ConnectedRandomGraph(kNodes, kNodes + 1, gen);
  Workload w;
  w.answer = "prm";
  w.arity = 4;
  w.text =
      "prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,\n"
      "                   least(C, I), choice(Y, X).\n"
      "new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).\n"
      "prm(nil, 0, 0, 0).\n";
  // Undirected reading; no arcs into the root, which enters by the seed
  // fact (see greedy/graph.h).
  auto add_arc = [&w](uint32_t u, uint32_t v, int64_t c) {
    if (v == 0) return;
    w.text += "g(";
    AppendInt(&w.text, u);
    w.text += ", ";
    AppendInt(&w.text, v);
    w.text += ", ";
    AppendInt(&w.text, c);
    w.text += ").\n";
  };
  auto arc_key = [](int64_t u, int64_t v) {
    return static_cast<uint64_t>(u) << 32 | static_cast<uint64_t>(v);
  };
  std::unordered_map<uint64_t, int64_t> cost;  // arc -> weight
  for (const GraphEdge& e : graph.edges) {
    add_arc(e.u, e.v, e.w);
    add_arc(e.v, e.u, e.w);
    cost[arc_key(e.u, e.v)] = e.w;
    cost[arc_key(e.v, e.u)] = e.w;
  }
  const int64_t mst_cost = BaselinePrim(graph, 0).total_cost;
  // A spanning tree (n - 1 real edges, every node entered once) whose
  // cost equals the procedural Prim's is a minimum spanning tree.
  w.check = [mst_cost, cost = std::move(cost),
             arc_key](std::string_view output) -> std::string {
    std::vector<bool> entered(kNodes, false);
    std::vector<std::string_view> f;
    uint64_t lines = 0;
    int64_t total = 0;
    std::string error;
    ForEachLine(output, [&](std::string_view line) {
      ++lines;
      if (!error.empty()) return;
      int64_t node = 0, c = 0, stage = 0, parent = 0;
      if (!SplitAtom(line, "prm", &f) || f.size() != 4 ||
          !ParseInt(f[1], &node) || !ParseInt(f[2], &c) ||
          !ParseInt(f[3], &stage) || node < 0 || node >= kNodes) {
        error = "malformed answer " + std::string(line);
        return;
      }
      if (entered[node]) {
        error = "node " + std::to_string(node) + " entered twice";
        return;
      }
      entered[node] = true;
      if (f[0] == "nil") {
        if (node != 0 || c != 0) error = "bad root " + std::string(line);
        return;
      }
      const auto it = ParseInt(f[0], &parent) ? cost.find(arc_key(parent, node))
                                              : cost.end();
      if (it == cost.end() || it->second != c) {
        error = "not a graph edge: " + std::string(line);
        return;
      }
      total += c;
    });
    if (!error.empty()) return error;
    if (lines != kNodes) {
      return std::to_string(lines) + " answers, expected " +
             std::to_string(kNodes) + " (n - 1 tree edges + root)";
    }
    if (total != mst_cost) {
      return "tree cost " + std::to_string(total) + ", BaselinePrim " +
             std::to_string(mst_cost);
    }
    return "";
  };
  return w;
}

// triangle_join: transitive triangles X < Y < Z on a random digraph with
// n = 400 and 16k distinct arcs. A three-way join that scans ~33 rows
// per answer: probe- and executor-bound.
Workload TriangleJoin(uint64_t seed) {
  constexpr uint32_t kNodes = 400;
  constexpr uint32_t kArcs = 16'000;
  Workload w;
  w.answer = "tri";
  w.arity = 3;
  w.text = "tri(X, Y, Z) <- e(X, Y), e(Y, Z), e(X, Z), X < Y, Y < Z.\n";
  Rng rng(seed);
  std::unordered_set<uint64_t> arcs;
  std::vector<std::vector<uint32_t>> out(kNodes);
  while (arcs.size() < kArcs) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(kNodes));
    const auto b = static_cast<uint32_t>(rng.NextBounded(kNodes));
    if (a == b || !arcs.insert(uint64_t{a} << 32 | b).second) continue;
    out[a].push_back(b);
    w.text += "e(";
    AppendInt(&w.text, a);
    w.text += ", ";
    AppendInt(&w.text, b);
    w.text += ").\n";
  }
  LineSet expected;
  std::string line;
  for (uint32_t x = 0; x < kNodes; ++x) {
    for (const uint32_t y : out[x]) {
      if (y <= x) continue;
      for (const uint32_t z : out[y]) {
        if (z <= y || !arcs.count(uint64_t{x} << 32 | z)) continue;
        line = "tri(";
        AppendInt(&line, x);
        line += ", ";
        AppendInt(&line, y);
        line += ", ";
        AppendInt(&line, z);
        line += ").";
        expected.Add(line);
      }
    }
  }
  w.check = ExpectLines(expected);
  return w;
}

struct WorkloadDef {
  const char* name;
  Workload (*make)(uint64_t seed);
};
constexpr WorkloadDef kWorkloads[] = {
    {"edb_load", EdbLoad},
    {"tc_chain", TcChain},
    {"prim_large", PrimLarge},
    {"triangle_join", TriangleJoin},
};

// ---------------------------------------------------------------------------
// Timed (untraced) iterations
// ---------------------------------------------------------------------------

/// Renders query rows the way gdlog_shell prints them: "pred(a, b).\n".
void Render(const Engine& engine, const std::string& pred,
            const std::vector<std::vector<Value>>& rows, std::string* out) {
  for (const auto& row : rows) {
    out->append(pred);
    out->append(TupleToString(engine.store(), TupleView(row)));
    out->append(".\n");
  }
}

struct Iteration {
  double wall_s = 0;   // Engine construction to destruction
  double setup_s = 0;  // Engine construction + LoadProgram
  Status status;
  std::string output;  // rendered answers
};

Iteration RunIteration(const Workload& w) {
  Iteration it;
  const auto t0 = Clock::now();
  auto engine = std::make_unique<Engine>();
  it.status = engine->LoadProgram(w.text);
  it.setup_s = SecondsBetween(t0, Clock::now());
  if (it.status.ok()) it.status = engine->Run();
  if (it.status.ok()) {
    const auto rows = engine->Query(w.answer, w.arity);
    Render(*engine, w.answer, rows, &it.output);
  }
  engine.reset();
  it.wall_s = SecondsBetween(t0, Clock::now());
  return it;
}

/// Setup alone: Engine construction + LoadProgram (then teardown).
double RunSetupOnly(const Workload& w) {
  const auto t0 = Clock::now();
  auto engine = std::make_unique<Engine>();
  const Status st = engine->LoadProgram(w.text);
  const double setup_s = SecondsBetween(t0, Clock::now());
  return st.ok() ? setup_s : -1;
}

/// Checks one iteration's status and output; counts and logs a failure.
bool Passed(const Status& status, const std::string& output,
            const Workload& w, uint64_t* failed) {
  const std::string why = status.ok() ? w.check(output) : status.ToString();
  if (why.empty()) return true;
  ++*failed;
  std::fprintf(stderr, "perfbench: iteration failed: %s\n", why.c_str());
  return false;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Traced iterations: outside-in spans and the per-layer split
// ---------------------------------------------------------------------------

/// One bench-side span, recorded in `tracer` when it ends. The event's
/// trace category names the enclosing span.
class Span {
 public:
  Span(Tracer* tracer, std::string name, const char* parent = "iteration")
      : tracer_(tracer),
        name_(std::move(name)),
        parent_(parent),
        start_ns_(tracer->NowNs()) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (the first call records it); returns its seconds.
  double End() {
    if (!ended_) {
      end_ns_ = tracer_->NowNs();
      tracer_->Complete(name_, parent_, start_ns_, end_ns_);
      ended_ = true;
    }
    return static_cast<double>(end_ns_ - start_ns_) / 1e9;
  }
  uint64_t start_ns() const { return start_ns_; }
  uint64_t end_ns() const { return end_ns_; }

 private:
  Tracer* tracer_;
  std::string name_;
  const char* parent_;
  uint64_t start_ns_;
  uint64_t end_ns_ = 0;
  bool ended_ = false;
};

/// Records every gap between the top-level spans recorded since event
/// `first` as a "residual" span, so that they add up to the iteration
/// [start_ns, end_ns). Returns the gaps' total seconds.
double AddResiduals(Tracer* tracer, size_t first, uint64_t start_ns,
                    uint64_t end_ns) {
  // Top-level spans are sequential, so they end in the order they start.
  std::vector<std::pair<uint64_t, uint64_t>> top;
  for (size_t i = first; i < tracer->events().size(); ++i) {
    const TraceEvent& e = tracer->events()[i];
    if (std::string_view(e.category) == "iteration") {
      top.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
    }
  }
  uint64_t cursor = start_ns, residual_ns = 0;
  auto gap = [&](uint64_t until) {
    if (until <= cursor) return;
    tracer->Complete("residual", "iteration", cursor, until);
    residual_ns += until - cursor;
  };
  for (const auto& [span_start, span_end] : top) {
    gap(span_start);
    cursor = span_end;
  }
  gap(end_ns);
  return static_cast<double>(residual_ns) / 1e9;
}

/// Per-layer metrics, in output order. `exact` marks the counts that must
/// repeat exactly across traced iterations of one seed; the rest are
/// times or ratios, reported as medians over the traced iterations.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool exact;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"api.construct_s", "s", false},
    {"parser.parse_s", "s", false},
    {"parser.mb_per_s", "MB/s", false},
    {"analysis.stage_s", "s", false},
    {"analysis.rules", "count", true},
    {"absint.analyze_s", "s", false},
    {"compile.compile_s", "s", false},
    {"api.load_facts_s", "s", false},
    {"eval.eval_s", "s", false},
    {"eval.saturate_s", "s", false},
    {"eval.rounds", "count", true},
    {"eval.solutions", "count", true},
    {"eval.inserts", "count", true},
    {"eval.dedup_hits", "count", true},
    {"eval.scan_rows", "count", true},
    {"eval.insert_yield", "ratio", false},
    {"eval.goal_rows", "count", true},
    {"eval.goal_matches", "count", true},
    {"eval.match_ratio", "ratio", false},
    {"choice.gamma_s", "s", false},
    {"choice.firings", "count", true},
    {"choice.pushes", "count", true},
    {"choice.merged", "count", true},
    {"choice.redundant", "count", true},
    {"choice.fire_yield", "ratio", false},
    {"choice.max_queue", "count", true},
    {"storage.insert_ns", "ns", false},
    {"storage.dup_insert_ns", "ns", false},
    {"storage.probe_ns", "ns", false},
    {"storage.insert_share", "ratio", false},
    {"storage.rows", "count", true},
    {"storage.tracked_peak_mb", "MiB", false},
    {"output.query_s", "s", false},
    {"output.render_s", "s", false},
    {"output.rows", "count", true},
    {"api.teardown_s", "s", false},
    {"trace.residual_s", "s", false},
    {"trace.overhead", "ratio", false},
};

using LayerValues = std::unordered_map<std::string, double>;

/// Sums the EXPLAIN ANALYZE actuals (rows touched, matches) over every
/// planned goal in the run report.
Status SumGoalActuals(const Engine& engine, LayerValues* v) {
  auto report = engine.RunReport();
  if (!report.ok()) return report.status();
  auto doc = ParseJson(*report);
  if (!doc.ok()) return doc.status();
  double rows = 0, matches = 0;
  if (const JsonValue* plans = doc->Find("plans")) {
    for (const JsonValue& plan : plans->items) {
      const JsonValue* goals = plan.Find("goals");
      if (goals == nullptr) continue;
      for (const JsonValue& goal : goals->items) {
        const JsonValue* actual = goal.Find("actual");
        if (actual == nullptr) continue;
        if (const JsonValue* r = actual->Find("rows")) rows += r->number;
        if (const JsonValue* m = actual->Find("matches")) matches += m->number;
      }
    }
  }
  (*v)["eval.goal_rows"] = rows;
  (*v)["eval.goal_matches"] = matches;
  (*v)["eval.match_ratio"] = Ratio(matches, rows);
  return Status::OK();
}

/// Outside-in storage cost: every relation the program names is copied,
/// row by row in row order, into a fresh Relation with the same indexes
/// (insert), then inserted again (duplicate insert), then every row's
/// key is probed on every index. Per-operation nanoseconds.
Status ReplayStorage(const Engine& engine, Tracer* tracer, LayerValues* v) {
  double insert_s = 0, dup_s = 0, probe_s = 0;
  uint64_t rows = 0, probes = 0, hits = 0;
  const char* const parent = "storage.replay";  // outlives the tracer
  for (const Program::PredicateRef& p : engine.program()->AllPredicates()) {
    const Relation* src = engine.Find(p.name, p.arity);
    if (src == nullptr) continue;
    Relation fresh(p.name, p.arity);
    for (size_t i = 0; i < src->num_indices(); ++i) {
      fresh.EnsureIndex(src->index(i).columns());
    }
    const auto n = static_cast<RowId>(src->size());
    {
      Span s(tracer, "storage.insert " + p.name, parent);
      for (RowId r = 0; r < n; ++r) {
        if (!fresh.Insert(src->Row(r)).inserted) {
          return Status::Internal("replay: duplicate row in " + p.name);
        }
      }
      insert_s += s.End();
    }
    {
      Span s(tracer, "storage.dup_insert " + p.name, parent);
      for (RowId r = 0; r < n; ++r) {
        if (fresh.Insert(src->Row(r)).inserted) {
          return Status::Internal("replay: lost row in " + p.name);
        }
      }
      dup_s += s.End();
    }
    {
      Span s(tracer, "storage.probe " + p.name, parent);
      for (size_t i = 0; i < fresh.num_indices(); ++i) {
        const Index& index = fresh.index(i);
        for (RowId r = 0; r < n; ++r) {
          hits += index.Probe(index.HashRowKey(fresh.Row(r))).Next() != kNoRow;
        }
      }
      probe_s += s.End();
    }
    rows += n;
    probes += uint64_t{n} * fresh.num_indices();
  }
  if (hits != probes) return Status::Internal("replay: a probe found no row");
  (*v)["storage.insert_ns"] = Ratio(insert_s * 1e9, static_cast<double>(rows));
  (*v)["storage.dup_insert_ns"] = Ratio(dup_s * 1e9, static_cast<double>(rows));
  (*v)["storage.probe_ns"] = Ratio(probe_s * 1e9, static_cast<double>(probes));
  (*v)["storage.rows"] = static_cast<double>(rows);
  return Status::OK();
}

struct TracedIteration {
  Status status;
  std::string output;
  LayerValues values;
  double engine_wall_s = 0;  // traced wall minus bench-only spans
};

/// One traced iteration: spans around every public call, the engine's
/// own counters, and the storage replay.
TracedIteration RunTracedIteration(const Workload& w, Tracer* tracer,
                                   const std::string& engine_trace_path) {
  TracedIteration it;
  LayerValues& v = it.values;
  EngineOptions options;
  options.obs.enabled = true;
  const size_t first_event = tracer->events().size();
  std::unique_ptr<Engine> engine;
  double bench_only_s = 0;
  Span iteration(tracer, "iteration", "");
  auto run = [&]() -> Status {
    {
      Span s(tracer, "api.construct");
      engine = std::make_unique<Engine>(options);
      v["api.construct_s"] = s.End();
    }
    Span parse(tracer, "parser.parse");
    Result<Program> parsed = ParseProgram(&engine->store(), w.text);
    v["parser.parse_s"] = parse.End();
    v["parser.mb_per_s"] =
        Ratio(static_cast<double>(w.text.size()) / 1e6, v["parser.parse_s"]);
    GDLOG_RETURN_IF_ERROR(parsed.status());
    {
      Span s(tracer, "analysis.load_program_ast");
      GDLOG_RETURN_IF_ERROR(engine->LoadProgramAst(std::move(*parsed)));
      v["analysis.stage_s"] = s.End();
    }
    {
      Span s(tracer, "api.run");
      GDLOG_RETURN_IF_ERROR(engine->Run());
      const double run_s = s.End();
      const EnginePhaseTimes& ph = engine->phase_times();
      v["absint.analyze_s"] = ph.absint_ns / 1e9;
      v["compile.compile_s"] = ph.compile_ns / 1e9;
      v["eval.eval_s"] = ph.eval_ns / 1e9;
      // Run() also inserts the program's inline facts, outside every
      // phase timer: that is the residual.
      v["api.load_facts_s"] =
          run_s - (ph.absint_ns + ph.compile_ns + ph.eval_ns) / 1e9;
    }
    {
      Span query(tracer, "output.query");
      auto rows = engine->Query(w.answer, w.arity);
      v["output.query_s"] = query.End();
      Span render(tracer, "output.render");
      Render(*engine, w.answer, rows, &it.output);
      v["output.rows"] = static_cast<double>(rows.size());
      rows = decltype(rows)();  // freed in the span, as the shell does
      v["output.render_s"] = render.End();
    }
    {
      Span s(tracer, "bench.collect_stats");
      const FixpointStats& st = *engine->stats();
      v["analysis.rules"] = static_cast<double>(engine->program()->rules.size());
      v["eval.saturate_s"] = st.saturate_ns / 1e9;
      v["choice.gamma_s"] = st.gamma_ns / 1e9;
      v["eval.rounds"] = static_cast<double>(st.saturation_rounds);
      v["eval.solutions"] = static_cast<double>(st.exec.solutions);
      v["eval.inserts"] = static_cast<double>(st.exec.inserts);
      v["eval.scan_rows"] = static_cast<double>(st.exec.scan_rows);
      double dedup = 0;
      for (const RuleProfile& p : *engine->RuleProfiles()) dedup += p.dedup_hits;
      v["eval.dedup_hits"] = dedup;
      v["eval.insert_yield"] = Ratio(v["eval.inserts"], v["eval.solutions"]);
      GDLOG_RETURN_IF_ERROR(SumGoalActuals(*engine, &v));
      v["choice.firings"] = static_cast<double>(st.gamma_firings);
      v["choice.pushes"] = static_cast<double>(st.queues.inserted);
      v["choice.merged"] = static_cast<double>(st.queues.merged);
      v["choice.redundant"] = static_cast<double>(st.queues.redundant);
      v["choice.fire_yield"] = Ratio(static_cast<double>(st.queues.fired),
                                     static_cast<double>(st.queues.inserted));
      v["choice.max_queue"] = static_cast<double>(st.queues.max_queue);
      v["storage.tracked_peak_mb"] =
          engine->outcome().peak_memory_bytes / (1024.0 * 1024.0);
      bench_only_s += s.End();
    }
    {
      Span s(tracer, "bench.write_engine_trace");
      GDLOG_RETURN_IF_ERROR(engine->WriteTrace(engine_trace_path));
      bench_only_s += s.End();
    }
    {
      Span s(tracer, "storage.replay");
      GDLOG_RETURN_IF_ERROR(ReplayStorage(*engine, tracer, &v));
      bench_only_s += s.End();
    }
    // An estimate: the replayed per-row costs times eval's insert counts.
    v["storage.insert_share"] =
        Ratio(v["eval.inserts"] * v["storage.insert_ns"] +
                  v["eval.dedup_hits"] * v["storage.dup_insert_ns"],
              v["eval.eval_s"] * 1e9);
    return Status::OK();
  };
  it.status = run();
  {
    Span s(tracer, "api.teardown");
    engine.reset();
    v["api.teardown_s"] = s.End();
  }
  it.engine_wall_s = iteration.End() - bench_only_s;
  v["trace.residual_s"] = AddResiduals(tracer, first_event, iteration.start_ns(),
                                       iteration.end_ns());
  return it;
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the result as the last line of stdout.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").UInt(attempted);
  w.Key("failed").UInt(failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_dir = ".";
};

// Iteration floors: medians need a few samples even when one iteration
// outlasts --seconds.
constexpr size_t kMinIterations = 4;  // the untimed warm-up included
constexpr size_t kMinTracedRounds = 2;
constexpr size_t kMinSetupSamples = 3;

int RunEndToEnd(const Workload& w, const Args& args) {
  std::vector<double> walls, setups;
  uint64_t attempted = 0, failed = 0;
  const auto start = Clock::now();
  auto iterate = [&](bool timed) {
    const Iteration it = RunIteration(w);
    ++attempted;
    if (!Passed(it.status, it.output, w, &failed) || !timed) return;
    walls.push_back(it.wall_s);
    setups.push_back(it.setup_s);
  };
  // The first iteration warms the allocator and the caches, so it is
  // checked but not timed. Peak RSS is read right after it, before
  // anything whose repeat count depends on timing, so it is a pure
  // function of the seed: the memory of a process that generates the
  // input and runs it once.
  iterate(false);
  const double peak_rss_mib = PeakRssMiB();
  // Setup alone, for a tenth of --seconds.
  const auto setup_start = Clock::now();
  while (setups.size() < kMinSetupSamples ||
         SecondsBetween(setup_start, Clock::now()) + Median(setups) <=
             args.seconds / 10) {
    const double s = RunSetupOnly(w);
    if (s < 0) break;  // LoadProgram failed; the iterations report it
    setups.push_back(s);
  }
  // Stop starting iterations once the next one (estimated by the median
  // so far) would end past --seconds.
  while (attempted < kMinIterations ||
         SecondsBetween(start, Clock::now()) + Median(walls) <= args.seconds) {
    iterate(true);
  }
  std::string wall_list;
  for (const double wall : walls) wall_list += " " + std::to_string(wall);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: wall_s median %.4f over%s; setup_s "
               "median %.4f over %zu samples\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               Median(walls), wall_list.c_str(), Median(setups), setups.size());
  PrintResult(failed == 0, attempted, failed,
              {{"wall_s", Median(walls), "s"},
               {"setup_s", Median(setups), "s"},
               {"peak_rss_mb", peak_rss_mib, "MiB"}});
  return 0;
}

int RunTraced(const Workload& w, const Args& args) {
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::error_code ec;  // a failure shows when the trace is written
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string stem = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  Tracer tracer;
  std::vector<LayerValues> samples;
  // Rounds of one untraced and one traced iteration, so both sides of
  // trace.overhead see the same process state.
  std::vector<double> plain_walls, engine_walls, round_walls;
  const auto start = Clock::now();
  while (round_walls.size() < kMinTracedRounds ||
         SecondsBetween(start, Clock::now()) + Median(round_walls) <=
             args.seconds) {
    const auto round_start = Clock::now();
    const Iteration plain = RunIteration(w);
    ++attempted;
    if (Passed(plain.status, plain.output, w, &failed)) {
      plain_walls.push_back(plain.wall_s);
    }
    TracedIteration it = RunTracedIteration(w, &tracer, stem + "-engine.json");
    ++attempted;
    round_walls.push_back(SecondsBetween(round_start, Clock::now()));
    if (!Passed(it.status, it.output, w, &failed)) continue;
    engine_walls.push_back(it.engine_wall_s);
    samples.push_back(std::move(it.values));
  }
  // Self-check: every count repeats exactly across the traced iterations.
  for (const LayerMetric& m : kLayerMetrics) {
    if (!m.exact) continue;
    for (const LayerValues& s : samples) {
      if (s.at(m.name) != samples.front().at(m.name)) {
        correct = false;
        std::fprintf(stderr, "perfbench: count %s does not repeat\n", m.name);
        break;
      }
    }
  }
  const Status st = tracer.WriteChromeTrace(stem + "-bench.json");
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    correct = false;
  }

  const double plain_wall = Median(plain_walls);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i]["trace.overhead"] = Ratio(engine_walls[i], plain_wall);
  }
  std::vector<Metric> metrics;
  for (const LayerMetric& m : kLayerMetrics) {
    std::vector<double> values;
    for (const LayerValues& s : samples) values.push_back(s.at(m.name));
    metrics.push_back({m.name, Median(values), m.unit});
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu traced iterations; spans in "
               "%s-bench.json, engine trace in %s-engine.json\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               samples.size(), stem.c_str(), stem.c_str());
  PrintResult(correct && failed == 0 && !samples.empty(), attempted, failed,
              metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

}  // namespace
}  // namespace gdlog::perfbench

int main(int argc, char** argv) {
  using namespace gdlog::perfbench;
  // Pin glibc's mmap threshold. It otherwise rises to the largest block
  // freed so far, so later iterations would place their large blocks
  // differently from the first, whose peak RSS is the one reported.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  for (const WorkloadDef& def : kWorkloads) {
    if (args.workload != def.name) continue;
    const Workload w = def.make(args.seed);
    return args.trace ? RunTraced(w, args) : RunEndToEnd(w, args);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
