// perfbench_runner: the in-process half of the repo benchmark.
//
// run.py generates every input from its --seed and hands this program
// only spec lines; this program solves them through the public nahsp
// API, writes one line per solve to --samples, and prints one JSON
// object (round times, digests, layer metrics) as its last stdout line.
// run.py turns these into the reported metrics.
//
//   perfbench_runner env
//   perfbench_runner setup --specs FILE --threads N
//   perfbench_runner run --specs FILE --mode closed|batch --seconds S
//                        --threads N --trace 0 --samples FILE
//   perfbench_runner run ... --trace 1 --spans FILE --probe dense|sparse|small
//
// Spec file: one line per instance, "<round> <light|heavy> <spec...>
// seed=<n>"; round "w" marks warm-up lines, solved before any timing.
// A round is the unit of work: `closed` solves its lines one
// after another (solve_hsp at global pool width N); `batch` builds them
// all and runs one hsp::solve_hsp_batch at width N. Rounds repeat, in
// file order and wrapping around, until S seconds have passed; a round
// that starts is always finished, so every run covers whole rounds.
//
// Every solve must verify against the planted subgroup. Each round's
// reports are serialised with serve::write_solve_report, the wall-clock
// (`seconds`) and width (`threads`) fields zeroed, and hashed; round 0's
// digest is printed so run.py can compare it across runs.
//
// --trace 1 measures no end-to-end numbers. It runs round 0 four
// times: untraced (this one takes the first-run costs), traced (spans
// around every call into the hsp, bbox and serve layers, the hiding
// function wrapped in a counting LambdaHider), untraced again (the
// reference for the tracing overhead) and untraced at width 1. All four
// digests must agree. It then probes the qsim and linalg layers at the
// workload's domain sizes (--probe) and writes the spans once, at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nahsp/common/parallel.h"
#include "nahsp/common/rng.h"
#include "nahsp/common/spec.h"
#include "nahsp/hsp/instance.h"
#include "nahsp/hsp/scenario.h"
#include "nahsp/hsp/solve.h"
#include "nahsp/linalg/congruence.h"
#include "nahsp/qsim/sampler.h"
#include "nahsp/serve/outcome.h"

namespace {

using namespace nahsp;
using Clock = std::chrono::steady_clock;
using u64 = std::uint64_t;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Time the hypervisor ran something else while the machine's CPUs had
// work (the steal counter of /proc/stat), in seconds; 0 where the
// counter is missing. run.py removes it from wall times: see there.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t ticks[8] = {};
  in >> cpu;
  for (std::uint64_t& t : ticks) in >> t;
  if (!in || cpu != "cpu") return 0.0;
  return static_cast<double>(ticks[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Process CPU time and machine steal time, to difference over an interval.
struct Usage {
  double cpu_s = cpu_seconds();
  double steal_s = steal_seconds();
};

// ------------------------------------------------------------------ spans

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  long parent = -1;   // index into the span list, -1 = root
  long request = -1;  // instance index within the round
  std::int64_t untimed_child_ns = 0;  // time in children without spans (labels)
};

// In-memory span store. Spans are opened and closed on the main thread
// only: batch items, which finish on pool workers, are added after the
// batch has joined.
class Tracer {
 public:
  long open(std::string name, long parent, long request) {
    spans_.push_back({std::move(name), now_ns(), 0, parent, request, 0});
    return static_cast<long>(spans_.size()) - 1;
  }
  void close(long id, std::int64_t untimed_child_ns = 0) {
    spans_[id].end = now_ns();
    spans_[id].untimed_child_ns = untimed_child_ns;
  }
  // A span whose interval is already known.
  void add(std::string name, std::int64_t start, std::int64_t end, long parent, long request,
           std::int64_t untimed_child_ns) {
    spans_.push_back({std::move(name), start, end, parent, request, untimed_child_ns});
  }

  // Self time per span name, in ms: duration minus the union of its
  // child spans' intervals (children of a batch overlap) and minus its
  // untimed children.
  std::map<std::string, double> self_ms() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0) kids[s.parent].emplace_back(s.start, s.end);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::sort(kids[i].begin(), kids[i].end());
      std::int64_t covered = 0, reach = spans_[i].start;
      for (const auto& [b, e] : kids[i]) {
        const std::int64_t from = std::max(b, reach);
        if (e > from) covered += e - from;
        reach = std::max(reach, e);
      }
      const Span& s = spans_[i];
      out[s.name] += static_cast<double>(s.end - s.start - covered - s.untimed_child_ns) * 1e-6;
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
         << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << ",\"untimed_child_ns\":" << s.untimed_child_ns
         << "}\n";
    }
    if (!os) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::vector<Span> spans_;
};

// Calls into, and time spent in, one instance's hiding function.
struct LabelStats {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

// Per-layer accumulators of one traced round.
struct Layers {
  struct Stat {
    double ms = 0;
    std::uint64_t calls = 0;
  };
  Stat build, solve, verify, report;
  LabelStats labels;
  bb::QueryCounter queries;
  double cpu_s = 0, wall_s = 0;
};

// Everything a traced round records; code paths take a nullable
// Trace*, so an untraced round pays one branch per call site.
struct Trace {
  Tracer spans;
  Layers layers;
};

// Runs `fn`; when tracing, records it as span `name` and adds its time
// to `stat`. `labels`, when given, is time spent in the hiding function
// during `fn`, which the span's self time excludes.
template <typename Fn>
void timed(Trace* trace, const char* name, Layers::Stat Layers::*stat, long parent,
           long request, Fn&& fn, const LabelStats* labels = nullptr) {
  if (trace == nullptr) {
    fn();
    return;
  }
  const long id = trace->spans.open(name, parent, request);
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  trace->spans.close(id, labels ? labels->ns : 0);
  Layers::Stat& st = trace->layers.*stat;
  st.ms += static_cast<double>(t1 - t0) * 1e-6;
  ++st.calls;
}

// ------------------------------------------------------------------ input

struct SpecLine {
  bool warm = false;  // warm-up line (round "w")
  std::size_t round = 0;
  bool light = false;
  std::string spec;  // without the seed token
  std::uint64_t seed = 1;
};

std::vector<SpecLine> read_specs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spec file " + path);
  std::vector<SpecLine> out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    SpecLine s;
    std::string rnd, cls, tok;
    if (!(is >> rnd >> cls)) continue;
    s.warm = rnd == "w";
    if (!s.warm) s.round = parse_spec_u64(rnd);
    s.light = cls == "light";
    while (is >> tok) {
      if (tok.rfind("seed=", 0) == 0) {
        s.seed = parse_spec_u64(tok.substr(5));
      } else {
        s.spec += (s.spec.empty() ? "" : " ") + tok;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

// ------------------------------------------------------------- the rounds

// One solve. On `closed`, latency_s is the solve's wall time and
// cpu_s/steal_s its process CPU and machine steal time. On `batch`,
// latency_s is the item's CPU time on its pool thread and cpu_s/steal_s
// are 0: an item runs serially on one thread, so its CPU time is its
// latency without the time the hypervisor stole (run.py, busy_share).
struct Sample {
  double latency_s = 0;
  bool light = false;
  bool ok = false;
  double cpu_s = 0, steal_s = 0;
};

struct RoundResult {
  std::vector<Sample> samples;
  std::string digest;  // FNV-1a over the stripped reports, hex
  std::vector<std::string> errors;
  double wall_s = 0, cpu_s = 0, steal_s = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Where and when one batch item finished.
struct ItemEnd {
  std::int64_t wall_ns = 0;
  double thread_cpu_s = 0;
  std::thread::id thread;
};

// CPU time of each batch item: its thread's CPU clock at its end minus
// the same clock at the end of that thread's previous item. A thread's
// first item has no previous end and keeps its wall time.
std::vector<double> item_cpu_seconds(const std::vector<ItemEnd>& ends,
                                     const hsp::BatchReport& report) {
  std::vector<std::size_t> order(ends.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ends[a].wall_ns < ends[b].wall_ns; });
  std::map<std::thread::id, double> last_cpu;
  std::vector<double> cpu(ends.size());
  for (const std::size_t i : order) {
    const auto it = last_cpu.find(ends[i].thread);
    cpu[i] = it == last_cpu.end() ? report.items[i].seconds : ends[i].thread_cpu_s - it->second;
    last_cpu[ends[i].thread] = ends[i].thread_cpu_s;
  }
  return cpu;
}

class Runner {
 public:
  Runner(std::vector<SpecLine> warm, std::vector<std::vector<SpecLine>> rounds, bool batch)
      : warm_(std::move(warm)), rounds_(std::move(rounds)), batch_(batch) {}

  // Runs round r at pool width `width`; traced when `trace` is set
  // (spans, label wrapping, layer accumulation).
  RoundResult run_round(std::size_t r, int width, Trace* trace) {
    set_parallelism(width);
    const std::vector<SpecLine>& lines = round(r);
    const std::int64_t t0 = now_ns();
    const Usage u0;
    const long root = trace ? trace->spans.open("round", -1, -1) : -1;
    RoundResult res;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    if (batch_) {
      run_batch(lines, width, trace, root, res, h);
    } else {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto req = static_cast<long>(i);
        const std::int64_t s0 = now_ns();
        const Usage su0;
        serve::SolveOutcome out;
        out.scenario = build(lines[i], trace, root, req);
        const std::shared_ptr<LabelStats> labels = trace ? wrap_labels(out.scenario) : nullptr;
        Rng rng(lines[i].seed);
        const std::int64_t solve0 = now_ns();
        timed(trace, "hsp.solve_hsp", &Layers::solve, root, req, [&] {
          try {
            const hsp::HspSolution sol = hsp::solve_hsp(
                *out.scenario.instance.bb, *out.scenario.instance.f, rng, out.scenario.options);
            out.success = true;
            out.method = hsp::method_name(sol.method);
            out.generators = sol.generators;
          } catch (const std::exception& e) {
            out.error = e.what();
          }
        }, labels.get());
        out.seconds = static_cast<double>(now_ns() - solve0) * 1e-9;
        out.queries = *out.scenario.instance.counter;
        if (trace) add_labels(trace->layers.labels, *labels);
        finish(out, lines[i], trace, root, req, res, h);
        const Usage su1;
        res.samples.push_back({static_cast<double>(now_ns() - s0) * 1e-9, lines[i].light,
                               out.success && out.verified, su1.cpu_s - su0.cpu_s,
                               su1.steal_s - su0.steal_s});
      }
    }
    res.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    const Usage u1;
    res.cpu_s = u1.cpu_s - u0.cpu_s;
    res.steal_s = u1.steal_s - u0.steal_s;
    if (trace) {
      trace->spans.close(root);
      trace->layers.cpu_s += res.cpu_s;
      trace->layers.wall_s += res.wall_s;
    }
    res.digest = hex(h);
    return res;
  }

  const std::vector<SpecLine>& round(std::size_t r) const { return rounds_[r % rounds_.size()]; }

  // What a fresh process does before its first timed solve: build every
  // scenario of round 0 and solve the warm-up lines.
  void warm_up() const {
    for (const SpecLine& s : round(0)) (void)hsp::build_scenario(s.spec);
    for (const SpecLine& s : warm_) {
      hsp::BuiltScenario b = hsp::build_scenario(s.spec);
      Rng rng(s.seed);
      (void)hsp::solve_hsp(*b.instance.bb, *b.instance.f, rng, b.options);
    }
  }

 private:
  static hsp::BuiltScenario build(const SpecLine& line, Trace* trace, long parent, long request) {
    hsp::BuiltScenario built;
    timed(trace, "hsp.build_scenario", &Layers::build, parent, request,
          [&] { built = hsp::build_scenario(line.spec); });
    return built;
  }

  static void add_labels(LabelStats& total, const LabelStats& one) {
    total.calls += one.calls;
    total.ns += one.ns;
  }

  // Replaces the instance's hiding function with a forwarding
  // LambdaHider on the same counter, so query counts stay exact while
  // every label evaluation is counted and timed. Labels are evaluated
  // serially per instance (qsim/sampler.h), so plain counters suffice.
  static std::shared_ptr<LabelStats> wrap_labels(hsp::BuiltScenario& built) {
    auto stats = std::make_shared<LabelStats>();
    std::shared_ptr<bb::HidingFunction> inner = built.instance.f;
    built.instance.f = std::make_shared<bb::LambdaHider>(
        [inner, stats](bb::Code g) {
          const std::int64_t t0 = now_ns();
          const std::uint64_t v = inner->eval_uncounted(g);
          stats->ns += now_ns() - t0;
          ++stats->calls;
          return v;
        },
        built.instance.counter);
    return stats;
  }

  void run_batch(const std::vector<SpecLine>& lines, int width, Trace* trace, long root,
                 RoundResult& res, std::uint64_t& h) {
    std::vector<hsp::BuiltScenario> built;
    std::vector<std::shared_ptr<LabelStats>> labels;
    std::vector<bb::HspInstance> instances;
    hsp::BatchOptions opts;
    opts.threads = width;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      built.push_back(build(lines[i], trace, root, static_cast<long>(i)));
      if (trace) labels.push_back(wrap_labels(built.back()));
      instances.push_back(built.back().instance);
      opts.per_instance.push_back(built.back().options);
      opts.per_instance_rng.emplace_back(lines[i].seed);
    }
    // Items finish on pool threads, which report only a duration: the
    // callback stamps each end with the wall clock and the finishing
    // thread's CPU clock (each index is written by exactly one thread).
    std::vector<ItemEnd> ends(lines.size());
    opts.on_item = [&ends](std::size_t i, const hsp::BatchItemReport&) {
      ends[i] = {now_ns(), thread_cpu_seconds(), std::this_thread::get_id()};
    };
    const long batch_span = trace ? trace->spans.open("hsp.solve_hsp_batch", root, -1) : -1;
    const hsp::BatchReport report = hsp::solve_hsp_batch(instances, opts);
    const std::vector<double> item_cpu = item_cpu_seconds(ends, report);
    if (trace) {
      trace->spans.close(batch_span);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto dur = static_cast<std::int64_t>(report.items[i].seconds * 1e9);
        trace->spans.add("hsp.solve_hsp", ends[i].wall_ns - dur, ends[i].wall_ns, batch_span,
                         static_cast<long>(i), labels[i]->ns);
        trace->layers.solve.ms += report.items[i].seconds * 1e3;
        ++trace->layers.solve.calls;
        add_labels(trace->layers.labels, *labels[i]);
      }
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const hsp::BatchItemReport& item = report.items[i];
      serve::SolveOutcome out;
      out.scenario = std::move(built[i]);
      out.success = item.success;
      out.error = item.error;
      out.error_kind = item.error_kind;
      out.queries = item.queries;
      out.seconds = item.seconds;
      if (item.success) {
        out.method = hsp::method_name(item.solution.method);
        out.generators = item.solution.generators;
      }
      finish(out, lines[i], trace, root, static_cast<long>(i), res, h);
      res.samples.push_back({item_cpu[i], lines[i].light, out.success && out.verified});
    }
  }

  // Verifies against the planted subgroup, serialises the report with
  // its wall-clock and width fields zeroed, and folds it into the digest.
  static void finish(serve::SolveOutcome& out, const SpecLine& line, Trace* trace, long parent,
                     long request, RoundResult& res, std::uint64_t& h) {
    if (out.success) {
      timed(trace, "hsp.verify_same_subgroup", &Layers::verify, parent, request, [&] {
        out.verified = hsp::verify_same_subgroup(*out.scenario.instance.group, out.generators,
                                                 out.scenario.instance.planted_generators);
      });
    }
    if (!(out.success && out.verified) && res.errors.size() < 5)
      res.errors.push_back(line.spec + ": " + (out.success ? "not verified" : out.error));
    if (trace) {
      bb::QueryCounter& q = trace->layers.queries;
      q.group_ops += out.queries.group_ops;
      q.classical_queries += out.queries.classical_queries;
      q.quantum_queries += out.queries.quantum_queries;
      q.sim_basis_evals += out.queries.sim_basis_evals;
    }
    out.seconds = 0.0;
    std::ostringstream os;
    timed(trace, "serve.write_solve_report", &Layers::report, parent, request, [&] {
      JsonWriter w(os, JsonWriter::Style::kCompact);
      serve::write_solve_report(w, out, line.seed, 0);
    });
    h = fnv1a(h, os.str());
    h = fnv1a(h, "\n");
  }

  std::vector<SpecLine> warm_;
  std::vector<std::vector<SpecLine>> rounds_;
  bool batch_;
};

// ----------------------------------------------------------------- probes

// Label function hiding H = Z_{d_0} x ... x Z_{d_{m-1}} x 0: the
// mixed-radix index of x with its first m digits dropped.
qs::LabelFn drop_first(std::size_t m, std::vector<u64> moduli) {
  return [m, moduli](const la::AbVec& x) {
    u64 label = 0;
    for (std::size_t i = m; i < moduli.size(); ++i) label = label * moduli[i] + x[i];
    return label;
  };
}

// Probe domains per workload. The mixed-radix probe hides the order-2
// first factor, so label classes are pairs and the batched draws take
// the cached-distribution path, as the solvers' batches do.
struct ProbeSizes {
  std::vector<u64> mixed, qubit, sparse;
  std::size_t qubit_h, sparse_h;    // leading digits spanning H
  std::size_t enum_dim, enum_rank;  // abelian_enumerate over Z_2^dim
};

ProbeSizes probe_sizes(const std::string& kind) {
  if (kind == "dense")  // 2^20 points (dihedral n=750 sweeps 2^22), k=12 qubit
    return {{2, 1u << 19}, std::vector<u64>(12, 2), std::vector<u64>(16, 2), 4, 8, 16, 10};
  if (kind == "sparse")  // elem_abelian2 k=20 sparse sizes
    return {{2, 1u << 15}, std::vector<u64>(12, 2), std::vector<u64>(20, 2), 4, 10, 20, 12};
  return {{2, 128}, std::vector<u64>(6, 2), std::vector<u64>(8, 2), 2, 4, 8, 4};
}

struct Probe {
  double build_ms = 0;
  double draw_ns = 0;
  std::uint64_t draws = 0;
};

Probe probe_sampler(Tracer& tracer, const char* name, qs::SamplerBackend backend,
                    const std::vector<u64>& moduli, std::size_t h_digits) {
  constexpr std::size_t kDraws = 512;
  bb::QueryCounter counter;
  qs::SamplerChoice choice;
  choice.backend = backend;
  Rng rng(0x9b0be5);
  Probe p;
  const long id = tracer.open(std::string(name) + ".build", -1, -1);
  const std::int64_t t0 = now_ns();
  auto sampler = qs::make_coset_sampler(choice, moduli, drop_first(h_digits, moduli), &counter);
  sampler->sample_characters(rng, 1);  // label sweep + distribution build
  p.build_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  tracer.close(id);
  const long did = tracer.open(std::string(name) + ".draw", -1, -1);
  const std::int64_t t1 = now_ns();
  const auto ys = sampler->sample_characters(rng, kDraws);
  p.draw_ns = static_cast<double>(now_ns() - t1);
  p.draws = ys.size();
  tracer.close(did);
  return p;
}

// Repeats `fn` until at least `min_s` seconds have passed; returns the
// mean seconds per call.
template <typename Fn>
double mean_seconds(double min_s, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  std::uint64_t n = 0;
  double elapsed = 0;
  do {
    fn();
    ++n;
    elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(n);
}

struct LinalgProbe {
  double enumerate_s = 0;   // mean per la::abelian_enumerate call
  double congruence_s = 0;  // mean per la::congruence_kernel call
  std::size_t enumerated = 0;
};

// Enumerates a 2^rank subgroup of Z_2^dim (unit vectors plus one dense
// vector) and solves the congruence kernel of random characters that
// annihilate it.
LinalgProbe probe_linalg(Tracer& tracer, const ProbeSizes& ps) {
  const std::vector<u64> z2(ps.enum_dim, 2);
  std::vector<la::AbVec> gens;
  for (std::size_t i = 0; i + 1 < ps.enum_rank; ++i) {
    la::AbVec g(ps.enum_dim, 0);
    g[i] = 1;
    gens.push_back(g);
  }
  gens.push_back(la::AbVec(ps.enum_dim, 1));
  LinalgProbe p;
  long id = tracer.open("linalg.abelian_enumerate", -1, -1);
  p.enumerate_s = mean_seconds(0.05, [&] {
    p.enumerated = la::abelian_enumerate(gens, z2, std::size_t{1} << 24).size();
  });
  tracer.close(id);
  Rng rng(0xc0de);
  std::vector<la::AbVec> ys(ps.enum_dim + 8, la::AbVec(ps.enum_dim, 0));
  for (la::AbVec& y : ys)
    for (std::size_t i = ps.enum_rank; i < ps.enum_dim; ++i) y[i] = rng.below(2);
  id = tracer.open("linalg.congruence_kernel", -1, -1);
  p.congruence_s = mean_seconds(0.05, [&] { (void)la::congruence_kernel(ys, z2); });
  tracer.close(id);
  return p;
}

// ------------------------------------------------------------------- JSON

std::string json_str(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20) os << ' ';
    else os << c;
  }
  os << '"';
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Args {
  std::string specs, mode = "closed", spans, probe = "small", samples;
  double seconds = 10;
  int threads = 1;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--specs") a.specs = v;
    else if (k == "--mode") a.mode = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--samples") a.samples = v;
    else if (k == "--probe") a.probe = v;
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--threads") a.threads = std::stoi(v);
    else if (k == "--trace") a.trace = v == "1";
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.specs.empty()) throw std::invalid_argument("--specs is required");
  if (a.mode != "closed" && a.mode != "batch") throw std::invalid_argument("bad --mode");
  if (a.probe != "dense" && a.probe != "sparse" && a.probe != "small")
    throw std::invalid_argument("bad --probe");
  if (a.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  return a;
}

// One line per solve, "latency_s light ok cpu_s steal_s", appended as
// each round ends, so the samples of a long run never sit in memory
// (they would count in peak_rss_mb, and grow with throughput).
void append_samples(std::ostream& os, const std::vector<Sample>& samples) {
  for (const Sample& smp : samples)
    os << smp.latency_s << ' ' << smp.light << ' ' << smp.ok << ' ' << smp.cpu_s << ' '
       << smp.steal_s << '\n';
}

Runner load_runner(const Args& a) {
  std::vector<SpecLine> warm;
  std::vector<std::vector<SpecLine>> rounds;
  for (SpecLine& s : read_specs(a.specs)) {
    if (s.warm) {
      warm.push_back(std::move(s));
      continue;
    }
    if (s.round >= rounds.size()) rounds.resize(s.round + 1);
    rounds[s.round].push_back(std::move(s));
  }
  if (rounds.empty()) throw std::invalid_argument("no rounds in the spec file");
  for (const auto& r : rounds)
    if (r.empty()) throw std::invalid_argument("rounds in the spec file must be contiguous");
  return Runner(std::move(warm), std::move(rounds), a.mode == "batch");
}

// `setup`: the set-up alone, in a fresh process whose CPU time run.py
// reports as setup_s.
int cmd_setup(const Args& a) {
  set_parallelism(a.threads);
  load_runner(a).warm_up();
  return 0;
}

int cmd_run(const Args& a) {
  if (a.trace && a.spans.empty()) throw std::invalid_argument("--trace 1 needs --spans");
  if (!a.trace && a.samples.empty()) throw std::invalid_argument("--trace 0 needs --samples");
  Runner runner = load_runner(a);
  set_parallelism(a.threads);
  runner.warm_up();

  std::ostringstream os;
  os.precision(9);
  os << '{';
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto tally = [&](const RoundResult& r) {
    for (const Sample& s : r.samples) {
      ++attempted;
      if (!s.ok) ++failed;
    }
    for (const std::string& e : r.errors)
      if (errors.size() < 5) errors.push_back(e);
  };

  if (!a.trace) {
    std::ofstream samples(a.samples);
    samples.precision(9);
    std::ostringstream rounds;  // [wall_s, cpu_s, steal_s] per round
    rounds.precision(os.precision());
    std::string digest0;
    std::size_t r = 0;
    const std::int64_t t0 = now_ns();
    double wall = 0;
    do {
      RoundResult res = runner.run_round(r, a.threads, nullptr);
      if (r == 0) digest0 = res.digest;
      tally(res);
      append_samples(samples, res.samples);
      rounds << (r ? "," : "") << '[' << res.wall_s << ',' << res.cpu_s << ',' << res.steal_s
             << ']';
      ++r;
      wall = static_cast<double>(now_ns() - t0) * 1e-9;
    } while (wall < a.seconds);
    os << "\"wall_s\":" << wall << ",\"rounds\":[" << rounds.str() << "],\"digest0\":\""
       << digest0 << "\",\"peak_rss_mb\":" << peak_rss_mb();
    if (!samples.flush()) throw std::runtime_error("cannot write samples to " + a.samples);
  } else {
    Trace trace;
    Tracer& tracer = trace.spans;
    const Layers& layers = trace.layers;
    // The first untraced round takes the first-run costs; the overhead
    // compares the traced round with the untraced one after it.
    const RoundResult cold = runner.run_round(0, a.threads, nullptr);
    const RoundResult traced = runner.run_round(0, a.threads, &trace);
    const RoundResult plain = runner.run_round(0, a.threads, nullptr);
    const RoundResult narrow = runner.run_round(0, 1, nullptr);
    set_parallelism(a.threads);
    for (const RoundResult* r : {&cold, &traced, &plain, &narrow}) tally(*r);
    for (const RoundResult* r : {&cold, &traced, &narrow}) {
      if (r->digest != plain.digest) {
        ++failed;
        errors.push_back("report digest mismatch: " + r->digest + " vs " + plain.digest);
      }
    }
    ++attempted;  // the digest comparison itself
    // Round times without steal, as run.py's busy_share computes them.
    const auto busy_s = [](const RoundResult& r) {
      return r.steal_s > 0 && r.cpu_s > 0 ? r.wall_s * r.cpu_s / (r.cpu_s + r.steal_s)
                                          : r.wall_s;
    };

    const ProbeSizes ps = probe_sizes(a.probe);
    const Probe mixed = probe_sampler(tracer, "qsim.mixed_radix", qs::SamplerBackend::kMixedRadix,
                                      ps.mixed, 1);
    const Probe qubit =
        probe_sampler(tracer, "qsim.qubit", qs::SamplerBackend::kQubit, ps.qubit, ps.qubit_h);
    const Probe sparse =
        probe_sampler(tracer, "qsim.sparse", qs::SamplerBackend::kSparse, ps.sparse, ps.sparse_h);
    const LinalgProbe la_probe = probe_linalg(tracer, ps);
    attempted += 1;
    if (la_probe.enumerated != (std::size_t{1} << ps.enum_rank)) {
      ++failed;
      errors.push_back("abelian_enumerate returned " + std::to_string(la_probe.enumerated) +
                       " elements");
    }

    const auto per = [](double total, std::uint64_t n) {
      return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    const auto mean_ms = [&](const Layers::Stat& st) { return per(st.ms, st.calls); };
    const auto per_solve = [&](std::uint64_t v) {
      return per(static_cast<double>(v), layers.solve.calls);
    };
    const double label_ms =
        per(static_cast<double>(layers.labels.ns) * 1e-6, layers.solve.calls);
    os << "\"layers\":{"
       << "\"hsp.build_scenario_ms\":" << mean_ms(layers.build)
       << ",\"hsp.solve_ms\":" << mean_ms(layers.solve)
       << ",\"hsp.solve_self_ms\":" << mean_ms(layers.solve) - label_ms
       << ",\"hsp.verify_ms\":" << mean_ms(layers.verify)
       << ",\"hsp.batch_cpu_per_wall\":" << layers.cpu_s / layers.wall_s
       << ",\"hsp.width1_speedup\":" << busy_s(narrow) / busy_s(plain)
       << ",\"bbox.quantum_queries\":" << per_solve(layers.queries.quantum_queries)
       << ",\"bbox.classical_queries\":" << per_solve(layers.queries.classical_queries)
       << ",\"bbox.group_ops\":" << per_solve(layers.queries.group_ops)
       << ",\"bbox.sim_basis_evals\":" << per_solve(layers.queries.sim_basis_evals)
       << ",\"bbox.label_calls\":" << per_solve(layers.labels.calls)
       << ",\"bbox.label_ms\":" << label_ms
       << ",\"qsim.mixed_radix.build_ms\":" << mixed.build_ms
       << ",\"qsim.qubit.build_ms\":" << qubit.build_ms
       << ",\"qsim.sparse.build_ms\":" << sparse.build_ms
       << ",\"qsim.draw_us\":"
       << (mixed.draw_ns + qubit.draw_ns + sparse.draw_ns) * 1e-3 /
              static_cast<double>(mixed.draws + qubit.draws + sparse.draws)
       << ",\"linalg.enumerate_ms\":" << la_probe.enumerate_s * 1e3
       << ",\"linalg.congruence_us\":" << la_probe.congruence_s * 1e6
       << ",\"serve.report_us\":" << mean_ms(layers.report) * 1e3
       << ",\"trace.overhead_pct\":" << (busy_s(traced) / busy_s(plain) - 1.0) * 100.0 << "},";
    os << "\"self_ms\":{";
    bool first = true;
    for (const auto& [name, ms] : tracer.self_ms()) {
      os << (first ? "" : ",") << json_str(name) << ':' << ms;
      first = false;
    }
    os << "},\"digest0\":\"" << plain.digest << "\",\"peak_rss_mb\":" << peak_rss_mb();
    tracer.write(a.spans);
  }
  os << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) os << (i ? "," : "") << json_str(errors[i]);
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "env") {
#ifdef NDEBUG
      const bool ndebug = true;
#else
      const bool ndebug = false;
#endif
      std::cout << "{\"compiler\":" << json_str(__VERSION__) << ",\"ndebug\":"
                << (ndebug ? "true" : "false") << ",\"build_type\":"
                << json_str(PERFBENCH_BUILD_TYPE) << "}" << std::endl;
      return 0;
    }
    if (cmd == "run") return cmd_run(parse_args(argc, argv));
    if (cmd == "setup") return cmd_setup(parse_args(argc, argv));
    std::cerr << "usage: perfbench_runner env | setup|run --specs FILE ...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
