// verify: the relative-complete verifier (§5) on a seeded enterprise
// policy library — subnets x servers x ports. Team constraints are
// shaped like the paper's Cs (a secured subnet's traffic must pass a
// firewall, on allowed ports) and Clb (a balanced server takes only its
// two source subnets, load balanced, on port 7000), plus positive
// quarantines (a subnet may send nothing). Targets are shaped like T1
// (requireMiddlebox), T2 (traffic to an unknown server y_ in D must be
// load balanced) and positive isolation targets.
//
// Requests rotate over the three categories: (i) checkSubsumption,
// (ii) checkWithUpdate with an Lb/Fw insert/remove update, and (iii)
// checkOnState on a generated partial state. Every check builds its own
// canonical database, solver and per-rule verdict cache and its formulas
// are tiny, so this workload bypasses what table4 stresses. The
// generator knows every expected verdict; positive targets are also
// cross-checked against dl::constraintSubsumedCanonical.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "common.hpp"
#include "datalog/containment.hpp"
#include "relational/database.hpp"
#include "smt/verdict_cache.hpp"
#include "verify/templates.hpp"
#include "verify/unfold.hpp"
#include "verify/verifier.hpp"

namespace faurebench {

using namespace faure;
using verify::Verdict;

namespace {

std::string subnet(size_t i) { return "Sub" + std::to_string(i); }
std::string server(size_t i) { return "Srv" + std::to_string(i); }

dl::Term sym(const std::string& s) {
  return dl::Term::constant_(Value::sym(s));
}

struct Request {
  int category = 0;  // 1, 2 or 3
  verify::Constraint target;
  verify::Update update;  // category 2
  Verdict expected = Verdict::Unknown;
  bool positive = false;  // category 1 isolation target
};

/// The policy library, the partial state and the request stream, with
/// the verdict each request must get.
class Library {
 public:
  /// The library's shape is fixed (3/8 of the subnets secured, 1/12
  /// quarantined, 5/12 of the servers balanced); the seed picks which.
  Library(uint64_t seed, bool smoke) : rng_(seed) {
    nSub_ = smoke ? 8 : 72;
    nSrv_ = smoke ? 5 : 36;
    const std::vector<size_t> subs = shuffled(nSub_);
    for (size_t i = 0; i < nSub_ * 3 / 8; ++i) secured_.insert(subs[i]);
    for (size_t i = 0; i < std::max<size_t>(1, nSub_ / 12); ++i) {
      quarantined_.insert(subs[nSub_ - 1 - i]);
    }
    const std::vector<size_t> srvs = shuffled(nSrv_);
    for (size_t i = 0; i < nSrv_ * 5 / 12; ++i) {
      const size_t a = rng_.below(nSub_);
      const size_t b = (a + 1 + rng_.below(nSub_ - 1)) % nSub_;
      balanced_[srvs[i]] = {a, b};
    }
  }

  /// Parses the library's constraints (the datalog layer's work).
  void parseConstraints() {
    size_t k = 0;
    for (size_t s : secured_) {
      const std::string ys = "ys" + std::to_string(k) + "_";
      const std::string ps = "ps" + std::to_string(k++) + "_";
      const std::string head = "Vs(" + subnet(s) + ", " + ys + ", " + ps + ")";
      const std::string body = "R(" + subnet(s) + ", " + ys + ", " + ps + ")";
      known_.push_back(verify::Constraint::parse(
          "Cs." + subnet(s),
          "panic :- Vs(x, y, p).\n" + head + " :- " + body + ", !Fw(" +
              subnet(s) + ", " + ys + ").\n" + head + " :- " + body + ", " +
              ps + " != 80, " + ps + " != 344, " + ps + " != 7000.\n",
          reg_));
    }
    for (const auto& [v, src] : balanced_) {
      const std::string xt = "xt" + std::to_string(k) + "_";
      const std::string pt = "pt" + std::to_string(k++) + "_";
      const std::string head = "Vt(" + xt + ", " + server(v) + ", " + pt + ")";
      const std::string body = "R(" + xt + ", " + server(v) + ", " + pt + ")";
      known_.push_back(verify::Constraint::parse(
          "Clb." + server(v),
          "panic :- Vt(x, y, p).\n" + head + " :- " + body + ", " + xt +
              " != " + subnet(src.first) + ", " + xt + " != " +
              subnet(src.second) + ".\n" + head + " :- " + body + ", !Lb(" +
              xt + ", " + server(v) + ").\n" + head + " :- " + body + ", " +
              pt + " != 7000.\n",
          reg_));
    }
    std::string positiveText;
    for (size_t s : quarantined_) {
      const std::string text = "panic :- R(" + subnet(s) + ", y, p).\n";
      known_.push_back(
          verify::Constraint::parse("Q." + subnet(s), text, reg_));
      positiveText += text;
    }
    positiveKnown_ = verify::Constraint::parse("Q", positiveText, reg_);
  }

  /// Draws the partial state's shape and `n` requests. Every c-variable
  /// is declared before the state's registry is copied from the
  /// library's, so target and state ids agree.
  std::vector<Request> makeRequests(size_t n) {
    // Two traffic rows per subnet, the first firewalled; 3/10 of the
    // subnets also send to an unknown server.
    const std::vector<size_t> subs = shuffled(nSub_);
    for (size_t s = 0; s < nSub_; ++s) {
      const size_t v1 = rng_.below(nSrv_);
      const size_t v2 = (v1 + 1 + rng_.below(nSrv_ - 1)) % nSrv_;
      stateR_.insert({s, v1});
      stateR_.insert({s, v2});
      stateFw_.insert({s, v1});
    }
    for (size_t i = 0; i < nSub_ * 3 / 10; ++i) {
      const size_t s = subs[i];
      const std::string name = "yst" + std::to_string(s) + "_";
      const size_t v1 = rng_.below(nSrv_), v2 = (v1 + 1) % nSrv_;
      reg_.declare(name, ValueType::Sym,
                   {Value::sym(server(v1)), Value::sym(server(v2))});
      stateUnknown_[s] = {name, {v1, v2}};
    }
    std::vector<Request> out;
    for (size_t i = 0; i < n; ++i) out.push_back(makeRequest(i));
    return out;
  }

  rel::Database makeState() const {
    rel::Database db;
    db.cvars() = reg_;
    auto anySchema = [](const std::string& name, size_t arity) {
      std::vector<rel::Attribute> attrs(arity);
      for (size_t i = 0; i < arity; ++i) {
        attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
      }
      return rel::Schema(name, attrs);
    };
    db.create(anySchema("R", 3));
    db.create(anySchema("Fw", 2));
    db.create(anySchema("Lb", 2));
    const int64_t ports[] = {80, 344, 7000, 8080};
    size_t i = 0;
    for (const auto& [s, v] : stateR_) {
      db.table("R").insertConcrete({Value::sym(subnet(s)),
                                    Value::sym(server(v)),
                                    Value::fromInt(ports[i++ % 4])});
    }
    for (const auto& [s, v] : stateFw_) {
      db.table("Fw").insertConcrete(
          {Value::sym(subnet(s)), Value::sym(server(v))});
    }
    for (const auto& [s, u] : stateUnknown_) {
      db.table("R").insertConcrete({Value::sym(subnet(s)),
                                    Value::cvar(db.cvars().find(u.first)),
                                    Value::fromInt(7000)});
    }
    return db;
  }

  const CVarRegistry& registry() const { return reg_; }
  const std::vector<verify::Constraint>& known() const { return known_; }
  const verify::Constraint& positiveKnown() const { return positiveKnown_; }
  bool hasPositive() const { return !quarantined_.empty(); }

 private:
  bool quarantined(size_t s) const { return quarantined_.count(s) != 0; }
  bool balanced(size_t v) const { return balanced_.count(v) != 0; }
  /// Clb for v panics on any traffic from s.
  bool refuses(size_t s, size_t v) const {
    auto it = balanced_.find(v);
    return it != balanced_.end() && s != it->second.first &&
           s != it->second.second;
  }
  /// Some known constraint panics on every R(s, v, p) whatever p, Fw and
  /// Lb hold.
  bool forbidden(size_t s, size_t v) const {
    return quarantined(s) || refuses(s, v);
  }

  std::vector<size_t> shuffled(size_t n) {
    std::vector<size_t> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = i;
    for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng_.below(i)]);
    return out;
  }

  /// Request i is of category i mod 3 + 1; the shape within a category
  /// rotates too, so every seed sends the same mix.
  Request makeRequest(size_t i) {
    Request q;
    q.category = static_cast<int>(i % 3) + 1;
    const size_t round = i / 3;
    const size_t s = rng_.below(nSub_), v = rng_.below(nSrv_);
    if (q.category == 1) {
      q.positive = round % 3 == 0;
      if (q.positive) {
        q.target = verify::Constraint::parse(
            "Iso", "panic :- R(" + subnet(s) + ", " + server(v) + ", p).",
            reg_);
        q.expected = forbidden(s, v) ? Verdict::Holds : Verdict::Unknown;
      } else {
        q.target = verify::requireMiddlebox(reg_, subnet(s), server(v), "Fw");
        q.expected = secured_.count(s) || forbidden(s, v) ? Verdict::Holds
                                                          : Verdict::Unknown;
      }
    } else if (q.category == 2 && round % 3 != 0) {
      // T2 over a two-server domain under one or two Lb edits.
      const size_t v2 = (v + 1 + rng_.below(nSrv_ - 1)) % nSrv_;
      const std::string y = "yt" + std::to_string(i) + "_";
      reg_.declare(y, ValueType::Sym,
                   {Value::sym(server(v)), Value::sym(server(v2))});
      q.target = verify::Constraint::parse(
          "T2", "panic :- R(" + subnet(s) + ", " + y + ", 7000), !Lb(" +
                    subnet(s) + ", " + y + ").",
          reg_);
      std::set<std::pair<size_t, size_t>> inserted, removed;
      if (round % 2 == 0) {
        q.update.insert("Lb", {sym(subnet(s)), sym(server(v))});
        inserted.insert({s, v});
      }
      if (inserted.empty() || round % 4 == 0) {
        const size_t rs = rng_.chance(0.5) ? s : rng_.below(nSub_);
        const size_t rv = rng_.chance(0.5) ? v2 : rng_.below(nSrv_);
        if (!inserted.count({rs, rv})) {
          q.update.remove("Lb", {sym(subnet(rs)), sym(server(rv))});
          removed.insert({rs, rv});
        }
      }
      bool holds = true;
      for (size_t y2 : {v, v2}) {
        if (inserted.count({s, y2})) continue;
        // Not load balanced before the update: Clb's Lb rule covers it.
        if (!quarantined(s) && !balanced(y2)) holds = false;
        // Load balanced, but the update removes it.
        if (removed.count({s, y2}) && !forbidden(s, y2)) holds = false;
      }
      q.expected = holds ? Verdict::Holds : Verdict::Unknown;
    } else if (q.category == 2) {
      // T1 under one Fw edit: removing its own pair, or inserting or
      // removing another one. (Inserting its own pair is left out:
      // rewriteForUpdate crashes when every column of a negated literal
      // equals the inserted tuple.)
      q.target = verify::requireMiddlebox(reg_, subnet(s), server(v), "Fw");
      const size_t kind = (round / 3) % 3;
      const size_t os = (s + 1) % nSub_;
      if (kind == 0) {
        q.update.remove("Fw", {sym(subnet(s)), sym(server(v))});
        q.expected = forbidden(s, v) ? Verdict::Holds : Verdict::Unknown;
      } else {
        if (kind == 1) {
          q.update.insert("Fw", {sym(subnet(os)), sym(server(v))});
        } else {
          q.update.remove("Fw", {sym(subnet(os)), sym(server(v))});
        }
        q.expected = secured_.count(s) || forbidden(s, v) ? Verdict::Holds
                                                          : Verdict::Unknown;
      }
    } else {
      q.target = verify::requireMiddlebox(reg_, subnet(s), server(v), "Fw");
      auto unknown = stateUnknown_.find(s);
      const bool maybe = unknown != stateUnknown_.end() &&
                         (unknown->second.second.first == v ||
                          unknown->second.second.second == v);
      if (stateFw_.count({s, v})) {
        q.expected = Verdict::Holds;
      } else if (stateR_.count({s, v})) {
        q.expected = Verdict::Violated;
      } else {
        q.expected = maybe ? Verdict::ConditionallyViolated : Verdict::Holds;
      }
    }
    return q;
  }

  util::Rng rng_;
  size_t nSub_ = 0, nSrv_ = 0;
  CVarRegistry reg_;
  std::set<size_t> secured_, quarantined_;
  std::map<size_t, std::pair<size_t, size_t>> balanced_;
  std::vector<verify::Constraint> known_;
  verify::Constraint positiveKnown_;
  std::set<std::pair<size_t, size_t>> stateR_, stateFw_;
  std::map<size_t, std::pair<std::string, std::pair<size_t, size_t>>>
      stateUnknown_;
};

struct Loaded {
  std::unique_ptr<Library> lib;
  std::vector<Request> requests;
  std::unique_ptr<rel::Database> state;
  double parseSeconds = 0.0;
};

Loaded load(uint64_t seed, bool smoke, size_t n) {
  Loaded l;
  l.lib = std::make_unique<Library>(seed, smoke);
  l.parseSeconds = timed([&] { l.lib->parseConstraints(); });
  l.parseSeconds += timed([&] { l.requests = l.lib->makeRequests(n); });
  l.state = std::make_unique<rel::Database>(l.lib->makeState());
  return l;
}

struct Answer {
  Verdict verdict = Verdict::Unknown;
  double seconds = 0.0;
};

/// One request, as a client would send it.
Answer answer(const Library& lib, const rel::Database& state,
              const Request& q, obs::Tracer* tracer, Report* report) {
  verify::SubsumptionOptions opts;
  opts.solverCacheCapacity = Pinned::kCacheEntries;
  opts.guard = nullptr;
  opts.tracer = tracer;
  Answer a;
  util::Stopwatch w;
  if (q.category == 3) {
    TimedSolver solver(state.cvars());
    smt::VerdictCache cache(state.cvars(), Pinned::kCacheEntries);
    solver.setVerdictCache(&cache);
    solver.setTracer(tracer);
    a.verdict = verify::RelativeVerifier::checkOnState(q.target, state, solver)
                    .verdict;
    a.seconds = w.elapsed();
    if (report != nullptr) takeSolver(solver, *report);
    return a;
  }
  verify::RelativeVerifier v(lib.registry(), opts);
  a.verdict = q.category == 1 ? v.checkSubsumption(q.target, lib.known())
                              : v.checkWithUpdate(q.target, lib.known(),
                                                  q.update);
  a.seconds = w.elapsed();
  return a;
}

/// Ground truth plus the classical cross-check on the positive fragment.
bool correct(const Library& lib, const Request& q, Verdict got) {
  if (got != q.expected) return false;
  if (!q.positive || !lib.hasPositive()) return true;
  verify::SubsumptionOptions opts;
  opts.solverCacheCapacity = Pinned::kCacheEntries;
  const bool faure =
      verify::subsumes(q.target, {lib.positiveKnown()},
                       lib.registry(), opts)
          .subsumed;
  return faure == dl::constraintSubsumedCanonical(q.target.program,
                                                  lib.positiveKnown().program);
}

}  // namespace

void runVerify(const Args& a, Report& r) {
  const size_t pool = a.smoke ? 30 : 600;
  std::printf("workload verify seed=%llu requests=%zu categories=i,ii,iii\n",
              static_cast<unsigned long long>(a.seed), pool);

  if (!a.trace) {
    auto setup = [&] { return load(a.seed, a.smoke, pool); };
    std::vector<double> setups;
    Loaded l = load(a.seed, a.smoke, pool);
    // A request is one round of the three categories in turn; the round's
    // latency is what op_p50_ms takes the median of, so it does not sit
    // on the boundary between two categories' latencies.
    std::vector<double> byCat[4], all, rounds;
    std::vector<Verdict> got;
    HostProbe probe;
    double busy = 0.0;
    for (size_t i = 0; busy < a.seconds || i % 3 != 0; ++i) {
      const Request& q = l.requests[i % pool];
      const Answer ans = answer(*l.lib, *l.state, q, nullptr, nullptr);
      byCat[q.category].push_back(ans.seconds);
      all.push_back(ans.seconds);
      if (i % 3 == 0) rounds.push_back(0.0);
      rounds.back() += ans.seconds;
      const double before = busy;
      busy += ans.seconds;
      got.push_back(ans.verdict);
      // One set-up per second of checks.
      if (static_cast<long>(busy) != static_cast<long>(before)) {
        setups.push_back(timeSetup(setup));
      }
      probe.every(busy);
    }
    while (setups.size() < kMinSetups) setups.push_back(timeSetup(setup));
    setEndToEnd(r, setups, rounds, static_cast<double>(all.size()), probe);
    r.setNamed("verify.subsume_p50_ms", median(byCat[1]) * 1000.0, "ms",
               std::to_string(byCat[1].size()) + " checks");
    r.setNamed("verify.update_p50_ms", median(byCat[2]) * 1000.0, "ms",
               std::to_string(byCat[2].size()) + " checks");
    r.setNamed("verify.state_p50_ms", median(byCat[3]) * 1000.0, "ms",
               std::to_string(byCat[3].size()) + " checks");
    setTail(r, "verify.verdict_tail_ms", all, "checks");
    // Oracle, outside the timed region. A request repeats every `pool`
    // requests and must get the same verdict each time, so each distinct
    // one is checked once.
    r.attempted = got.size();
    std::vector<int> ok(pool, -1);  // -1 unchecked, 0 wrong, 1 right
    for (size_t i = 0; i < got.size(); ++i) {
      const size_t k = i % pool;
      if (ok[k] < 0) ok[k] = correct(*l.lib, l.requests[k], got[k]) ? 1 : 0;
      if (ok[k] == 0 || got[i] != got[k]) ++r.failed;
    }
    return;
  }

  // Trace run: the first `n` requests untraced, then traced.
  const size_t n = a.smoke ? 30 : 240;
  double walls[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    obs::Tracer tracer;
    const bool traced = pass == 1;
    Loaded l = load(a.seed, a.smoke, pool);
    InternerDelta interner;
    double unfoldS = 0.0, rewriteS = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const Request& q = l.requests[i];
      if (!traced && q.category == 1) {
        unfoldS += timed(
            [&] { verify::unfoldGoalRules(q.target.program, "panic"); });
      }
      if (!traced && q.category == 2) {
        rewriteS +=
            timed([&] { verify::rewriteForUpdate(q.target, q.update); });
      }
      const Answer ans = answer(*l.lib, *l.state, q,
                                traced ? &tracer : nullptr,
                                traced ? nullptr : &r);
      walls[pass] += ans.seconds;
      if (!traced) {
        ++r.attempted;
        if (!correct(*l.lib, q, ans.verdict)) ++r.failed;
        continue;
      }
      const char* kind = ans.verdict == Verdict::Holds     ? "verify.holds"
                         : ans.verdict == Verdict::Unknown ? "verify.unknown"
                                                           : "verify.violated";
      r.addLayer(kind, 1.0);
    }
    if (traced) {
      interner.take(r);
      takeRegistry(tracer, r);
    } else {
      r.setLayer("datalog.parse_s", l.parseSeconds, "s");
      r.setLayer("verify.unfold_s", unfoldS, "s");
      r.setLayer("verify.rewrite_s", rewriteS, "s");
    }
  }
  r.setLayer("obs.trace_overhead", walls[1] / walls[0], "ratio",
             "base: untraced checks " + std::to_string(walls[0]) + " s");
}

}  // namespace faurebench
