// AutoBraid repository benchmark: wall time from circuit text to a
// certified schedule, plus a closed-loop serve mix.
//
//   autobraid_perfbench --workload W --seed N --seconds S --trace 0|1
//                       [--small]
//   autobraid_perfbench --setup-probe --workload W
//
// Workloads (see BENCHMARK.json for why each one exists):
//   mid-anneal   qft:64 qaoa:100 shor:32 randct:100:5000:<r>, 2 seeds
//   paper-route  shor:192 and qft:100 (shor:234, the paper's Shor-471,
//                is too slow to repeat within a run)
//   wide-route   im:5000:3 and im:2500:13 (snake layout, no failures)
//   serve-zipf   closed-loop Zipf requests over a 64-request pool
//
// The seed picks generator and placement seeds; the library only ever
// sees the generated OpenQASM text. Every compile runs single-threaded
// (route_jobs = 1) and its schedule export is re-verified by the
// independent certifier; serve replies are compared byte-for-byte to
// a fresh uncached compile. --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones plus a profile tree. The last stdout
// line is always the JSON result.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/certify.hpp"
#include "common/json.hpp"
#include "common/text.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "place/annealer.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/exporter.hpp"
#include "serve/service.hpp"
#include "telemetry/telemetry.hpp"

namespace ab = autobraid;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64: the benchmark's own seeded stream, independent of
 *  the library's Rng so library changes never change the inputs. */
struct SeedStream
{
    uint64_t state;

    uint64_t next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

/** @p text with every occurrence of @p path removed. */
std::string
withoutPath(std::string text, const std::string &path)
{
    for (size_t at; (at = text.find(path)) != std::string::npos;)
        text.erase(at, path.size());
    return text;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Best (lowest) of repeated timings of one operation. */
double
best(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/** Nearest-rank percentile @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / v.size();
}

double
geomean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return v.empty() ? 0 : std::exp(s / v.size());
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// CPU choice
//
// On a shared host a vCPU runs 1.5-3x slower while another tenant keeps
// its SMT sibling busy. Which vCPUs those are changes every few seconds,
// and the guest scheduler cannot see it, so an unpinned benchmark measures
// the neighbours as much as the program. Timed work therefore starts on
// the CPUs that a short probe finds fastest at that moment. (Re-checking
// every 250 ms during a compile and moving the thread made runs no
// steadier.)

/**
 * Seconds a fixed load/store loop (about 0.5 ms on an idle core) takes on
 * the calling thread's CPU. Load/store-bound code is what a busy sibling
 * slows most; a compute-bound probe barely notices it.
 */
double
probeSeconds()
{
    volatile uint64_t x = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < 1000000; ++i)
        x = x + i * i;
    return secondsSince(t0);
}

/** The CPUs the process was started on. */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        return out;
    }();
    return cpus;
}

/** Restrict the calling thread to @p cpus. */
void
pinThread(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/**
 * Pin the calling thread, and the threads it creates from now on, to the
 * @p n CPUs that are fastest right now.
 */
void
pinToFastestCpus(size_t n)
{
    if (allowedCpus().size() <= n)
        return;
    std::vector<std::pair<double, int>> speed;
    for (int c : allowedCpus()) {
        pinThread({c});
        speed.push_back({std::min(probeSeconds(), probeSeconds()), c});
    }
    std::sort(speed.begin(), speed.end());
    std::vector<int> chosen;
    for (size_t k = 0; k < n; ++k)
        chosen.push_back(speed[k].second);
    pinThread(chosen);
}

// ---------------------------------------------------------------------
// Inputs

/** One compile input: generated text plus the options it runs with. */
struct Case
{
    std::string name;  ///< row label, also the circuit name
    std::string group; ///< profile-tree node (spec, or family on serve)
    std::string qasm;
    uint64_t place_seed = 0;
    bool surgery = false;
    int qubits = 0;
    size_t gates = 0;
};

Case
makeCase(const std::string &spec, const std::string &name,
         const std::string &group, uint64_t place_seed, bool surgery)
{
    const ab::Circuit circuit = ab::gen::make(spec);
    Case c;
    c.name = name;
    c.group = group;
    c.qasm = ab::qasm::toQasm(circuit);
    c.place_seed = place_seed;
    c.surgery = surgery;
    c.qubits = circuit.numQubits();
    c.gates = circuit.size();
    return c;
}

bool
isCompileWorkload(const std::string &w)
{
    return w == "mid-anneal" || w == "paper-route" || w == "wide-route";
}

std::vector<Case>
compileCases(const std::string &workload, uint64_t seed, bool small)
{
    SeedStream rng{seed * 0x2545f4914f6cdd1dULL + 1};
    std::vector<std::string> specs;
    int seeds_per_spec = 1;
    if (workload == "mid-anneal") {
        const uint64_t r = 1 + rng.below(100000);
        specs = small ? std::vector<std::string>{"qft:16", "qaoa:16",
                                                 "randct:16:300:" +
                                                     std::to_string(r)}
                      : std::vector<std::string>{
                            "qft:64", "qaoa:100", "shor:32",
                            "randct:100:5000:" + std::to_string(r)};
        seeds_per_spec = 2;
    } else if (workload == "paper-route") {
        specs = small ? std::vector<std::string>{"shor:16", "qft:24"}
                      : std::vector<std::string>{"shor:192", "qft:100"};
    } else if (workload == "wide-route") {
        specs = small ? std::vector<std::string>{"im:100:3", "im:64:5"}
                      : std::vector<std::string>{"im:5000:3",
                                                 "im:2500:13"};
    }
    std::vector<Case> cases;
    for (const std::string &spec : specs)
        for (int k = 0; k < seeds_per_spec; ++k) {
            const uint64_t ps = 1 + rng.below(1u << 30);
            const std::string name =
                seeds_per_spec > 1 ? spec + "#" + std::to_string(k + 1)
                                   : spec;
            cases.push_back(makeCase(spec, name, spec, ps, false));
        }
    return cases;
}

std::string
compileRequest(const Case &c, int id, bool use_cache = true)
{
    return ab::strformat("{\"id\":%d,\"qasm\":\"%s\",\"use_cache\":%s,"
                         "\"options\":{\"seed\":%llu%s}}",
                         id, ab::jsonEscape(c.qasm).c_str(),
                         use_cache ? "true" : "false",
                         static_cast<unsigned long long>(c.place_seed),
                         c.surgery ? ",\"backend\":\"surgery\"" : "");
}

/**
 * The serve pool: 64 small requests (12-40 qubits; qft, qaoa, randct,
 * bv, im; every fourth on the surgery backend). The structure is fixed
 * so Zipf rank r always lands on a similar-sized request; the seed
 * picks generator and placement seeds.
 */
std::vector<Case>
servePool(uint64_t seed, bool small)
{
    static const char *kFamilies[] = {"qft", "qaoa", "randct", "bv", "im"};
    SeedStream rng{seed * 0x9e3779b97f4a7c15ULL + 7};
    const int n_items = small ? 10 : 64;
    std::vector<Case> pool;
    for (int i = 0; i < n_items; ++i) {
        const std::string family = kFamilies[i % 5];
        const int n = 12 + 2 * ((i * 7) % 15); // even: qaoa needs it
        std::string spec = family + ":" + std::to_string(n);
        if (family == "randct")
            spec += ":" + std::to_string(8 * n) + ":" +
                    std::to_string(1 + rng.below(100000));
        const bool surgery = i % 4 == 3;
        const std::string group =
            family + (surgery ? "/surgery" : "/braiding");
        pool.push_back(makeCase(spec, spec + "@" + std::to_string(i),
                                group, 1 + rng.below(1u << 30),
                                surgery));
    }
    return pool;
}

/** The fixed tiny request the set-up probe and serve probe send. */
Case
probeCase()
{
    return makeCase("bv:8", "bv:8", "bv:8", 2021, false);
}

// ---------------------------------------------------------------------
// One compile: text -> certified schedule

struct OpResult
{
    double parse_s = 0, compile_s = 0, certify_s = 0, total_s = 0;
    size_t export_bytes = 0;
    ab::CompileReport report;
    bool certified = false;
    std::string error;
    std::string schedule; ///< export text, kept only for traced ops
};

OpResult
runOp(const Case &c, const std::string &schedule_path, bool traced)
{
    OpResult r;
    const Clock::time_point t0 = Clock::now();
    try {
        const ab::Circuit circuit = ab::qasm::parseToCircuit(c.qasm, c.name);
        const Clock::time_point t1 = Clock::now();
        ab::CompileOptions options;
        options.seed = c.place_seed;
        options.backend = c.surgery ? ab::SchedulerBackend::LatticeSurgery
                                    : ab::SchedulerBackend::Braiding;
        options.route_jobs = 1;
        options.schedule_out = schedule_path;
        options.telemetry.enabled = traced;
        r.report = ab::compileCircuit(circuit, options);
        const Clock::time_point t2 = Clock::now();
        std::string text = ab::readTextFile(schedule_path);
        const ab::certify::Certificate cert =
            ab::certify::certifyScheduleText(text);
        const Clock::time_point t3 = Clock::now();
        r.parse_s = std::chrono::duration<double>(t1 - t0).count();
        r.compile_s = std::chrono::duration<double>(t2 - t1).count();
        r.certify_s = std::chrono::duration<double>(t3 - t2).count();
        r.export_bytes = text.size();
        r.certified = cert.ok && r.report.result.valid &&
                      cert.gates == circuit.size() &&
                      cert.scheduled == circuit.size() &&
                      cert.makespan == r.report.result.makespan;
        if (!r.certified)
            r.error = cert.violations.empty()
                          ? "certificate disagrees with the report"
                          : cert.violations.front().toString();
        if (traced)
            r.schedule = std::move(text);
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    r.total_s = secondsSince(t0);
    return r;
}

/** runOp on the CPU that is fastest when it starts. */
OpResult
runPinnedOp(const Case &c, const std::string &schedule_path, bool traced)
{
    pinToFastestCpus(1);
    return runOp(c, schedule_path, traced);
}

// ---------------------------------------------------------------------
// Serve: closed-loop clients against a CompileService

struct Reply
{
    size_t item = 0;
    double client_us = 0;
    std::string text;
};

/** Reply fields the checks need (parsed outside the timed loop). */
struct ParsedReply
{
    bool ok = false;
    bool cached = false;
    std::string report; ///< raw "report" bytes
};

ParsedReply
parseReply(const std::string &text)
{
    ParsedReply p;
    p.ok = text.find("\"status\":\"ok\"") != std::string::npos;
    p.cached = text.find("\"cached\":true") != std::string::npos;
    const size_t rep = text.find("\"report\":");
    if (rep != std::string::npos && text.size() > rep + 10)
        p.report = text.substr(rep + 9, text.size() - rep - 10);
    return p;
}

struct Episode
{
    double wall_s = 0;
    std::vector<Reply> replies;
    ab::telemetry::MetricsRegistry metrics;
};

/** @p clients threads send @p sequence (pool indices) in a closed loop. */
Episode
runEpisode(ab::serve::CompileService &service,
           const std::vector<std::string> &requests,
           const std::vector<size_t> &sequence, int clients)
{
    Episode ep;
    std::atomic<size_t> next{0};
    std::vector<std::vector<Reply>> per_client(clients);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t)
        threads.emplace_back([&, t] {
            for (size_t k; (k = next++) < sequence.size();) {
                const Clock::time_point s = Clock::now();
                std::string reply = service.handle(requests[sequence[k]]);
                per_client[t].push_back(
                    {sequence[k], secondsSince(s) * 1e6, std::move(reply)});
            }
        });
    for (std::thread &th : threads)
        th.join();
    ep.wall_s = secondsSince(t0);
    ep.metrics = service.metricsSnapshot();
    for (auto &v : per_client)
        for (Reply &r : v)
            ep.replies.push_back(std::move(r));
    return ep;
}

ab::serve::ServiceConfig
serviceConfig(size_t cache_entries)
{
    ab::serve::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queue_depth = 64;
    cfg.cache_entries = cache_entries;
    return cfg;
}

/** Zipf(s = 1) draw over ranks 0..n-1; rank r is pool item r. */
std::vector<size_t>
zipfSequence(size_t n_items, size_t n_requests, uint64_t seed)
{
    std::vector<double> cdf(n_items);
    double acc = 0;
    for (size_t r = 0; r < n_items; ++r)
        cdf[r] = acc += 1.0 / static_cast<double>(r + 1);
    SeedStream rng{seed};
    std::vector<size_t> seq(n_requests);
    for (size_t &x : seq) {
        const double u = rng.unit() * acc;
        x = std::min<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
            n_items - 1);
    }
    return seq;
}

// ---------------------------------------------------------------------
// Profile tree (benchmark spans around public calls + library spans)

struct ProfileNode
{
    long count = 0;
    double total_us = 0, max_us = 0, self_us = 0;
    std::vector<std::pair<std::string, ProfileNode>> kids; // first-seen order

    ProfileNode &child(const std::string &name)
    {
        for (auto &[n, node] : kids)
            if (n == name)
                return node;
        kids.emplace_back(name, ProfileNode{});
        return kids.back().second;
    }
    void add(double us)
    {
        ++count;
        total_us += us;
        max_us = std::max(max_us, us);
    }
    /** add() for a node with no children: all of it is self time. */
    void addLeaf(double us)
    {
        add(us);
        self_us += us;
    }
};

/**
 * Nest @p spans (one compile's library spans, one thread) under @p root
 * by interval containment; returns the summed duration of the spans
 * that landed directly under @p root.
 */
double
addLibrarySpans(ProfileNode &root,
                std::vector<ab::telemetry::SpanRecord> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const auto &a, const auto &b) {
                  return a.start_us != b.start_us ? a.start_us < b.start_us
                                                  : a.dur_us > b.dur_us;
              });
    struct Frame
    {
        ProfileNode *node;
        double end, dur, child;
    };
    std::vector<Frame> stack;
    double top_level = 0;
    auto close = [&] {
        const Frame f = stack.back();
        stack.pop_back();
        f.node->self_us += f.dur - f.child;
    };
    for (const auto &s : spans) {
        const double end = s.start_us + s.dur_us;
        while (!stack.empty() && (s.start_us >= stack.back().end ||
                                  end > stack.back().end))
            close();
        ProfileNode &parent = stack.empty() ? root : *stack.back().node;
        (stack.empty() ? top_level : stack.back().child) += s.dur_us;
        ProfileNode &node = parent.child(s.name);
        node.add(s.dur_us);
        stack.push_back({&node, end, s.dur_us, 0});
    }
    while (!stack.empty())
        close();
    return top_level;
}

void
profileOp(ProfileNode &workload, const Case &c, const OpResult &r)
{
    ProfileNode &circ = workload.child(c.group);
    const double total = r.total_s * 1e6;
    circ.add(total);
    circ.child("qasm.parse").addLeaf(r.parse_s * 1e6);
    double covered = r.parse_s * 1e6 + r.certify_s * 1e6;
    if (r.report.telemetry)
        covered += addLibrarySpans(circ,
                                   r.report.telemetry->tracer().spans());
    circ.child("certify").addLeaf(r.certify_s * 1e6);
    circ.self_us += total - covered;
    workload.add(total);
}

void
printProfile(const std::string &name, const ProfileNode &node, int depth)
{
    std::printf("%*s%-*s %7ld %12.3f %10.3f %10.3f %12.3f\n", 2 * depth,
                "", 44 - 2 * depth, name.c_str(), node.count,
                node.total_us / 1e3, ratio(node.total_us, node.count) / 1e3,
                node.max_us / 1e3, node.self_us / 1e3);
    for (const auto &[n, kid] : node.kids)
        printProfile(n, kid, depth + 1);
}

// ---------------------------------------------------------------------
// Result assembly

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Metrics
{
    std::vector<Metric> m;
    void put(const std::string &name, double value, const std::string &unit)
    {
        m.push_back({name, value, unit});
    }
};

struct Tally
{
    long attempted = 0, failed = 0;
    void note(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }
};

void
printResult(const Tally &tally, const Metrics &metrics)
{
    std::string out = ab::strformat(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
        "\"metrics\": {",
        tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed);
    for (size_t i = 0; i < metrics.m.size(); ++i) {
        const Metric &x = metrics.m[i];
        out += ab::strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i ? ", " : "", x.name.c_str(),
                             std::isfinite(x.value) ? x.value : 0.0,
                             x.unit.c_str());
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

void
printRow(const Case &c, const ab::CompileReport &rep,
         const std::vector<double> &times)
{
    std::printf("%-24s %6d %8zu %5d %8zu %5zu %11.3f %11.3f %9.4f\n",
                c.name.c_str(), c.qubits, c.gates, rep.grid_side,
                rep.result.braids_routed, times.size(), best(times) * 1e3,
                median(times) * 1e3, rep.cpRatio());
}

void
printRowHeader()
{
    std::printf("%-24s %6s %8s %5s %8s %5s %11s %11s %9s\n", "circuit",
                "qubits", "gates", "grid", "braids", "reps", "best_ms",
                "median_ms", "mksp/cp");
}

// ---------------------------------------------------------------------
// Per-layer accounting over traced compiles

/** The wall-clock part of one traced compile. */
struct Timings
{
    double parse_s = 0, compile_s = 0, certify_s = 0, total_s = 0;
    std::vector<ab::PassTiming> passes;

    static Timings of(const OpResult &r)
    {
        return {r.parse_s, r.compile_s, r.certify_s, r.total_s,
                r.report.pass_timings};
    }
};

/** Sums over one traced compile per case (times are per-case means). */
struct LayerSums
{
    double parse_s = 0, compile_s = 0, total_s = 0, certify_s = 0;
    double export_mb = 0, overhead_s = 0, untraced_total_s = 0;
    size_t gates = 0;
    std::map<std::string, double> pass_s;
    long long proposals = 0, accepts = 0, instants = 0, layout = 0,
              swaps_planned = 0, astar_calls = 0, astar_nodes = 0,
              astar_misses = 0, region_skips = 0, failures = 0, braids = 0,
              stack_peeled = 0;
    std::vector<double> llg_us;

    void add(const Timings &t, double weight)
    {
        parse_s += weight * t.parse_s;
        compile_s += weight * t.compile_s;
        certify_s += weight * t.certify_s;
        total_s += weight * t.total_s;
        double in_passes = 0;
        for (const ab::PassTiming &pt : t.passes) {
            pass_s[pt.pass] += weight * pt.seconds;
            in_passes += pt.seconds;
        }
        overhead_s += weight * (t.compile_s - in_passes);
    }

    void addCounters(const ab::telemetry::MetricsRegistry &m)
    {
        proposals += m.counter("place.anneal_proposals");
        accepts += m.counter("place.anneal_accepts");
        instants += m.histogram("sched.event_batch").count;
        layout += m.counter("sched.layout_invocations");
        swaps_planned += m.counter("sched.layout_swaps_planned");
        const ab::telemetry::Histogram nodes =
            m.histogram("route.astar_nodes");
        astar_calls += nodes.count;
        astar_nodes += static_cast<long long>(nodes.sum);
        astar_misses += m.counter("route.astar_misses");
        region_skips += m.counter("route.astar_region_skips");
        failures += m.counter("sched.routing_failures");
        braids += m.histogram("sched.braid_path_length").count;
        stack_peeled +=
            static_cast<long long>(m.histogram("route.stack_peeled").sum);
    }
};

/**
 * "counters <circuit> <work-counter digest> <summary digest>": two runs
 * of one seed must print identical lines (the self-test compares them).
 */
void
printDigests(const std::string &name, const OpResult &traced,
             const std::string &sched_path)
{
    const std::string counters =
        traced.report.telemetry ? traced.report.telemetry->metrics().toJson()
                                : "";
    std::printf(
        "counters %s %016llx %016llx\n", name.c_str(),
        static_cast<unsigned long long>(fnv1a(counters)),
        static_cast<unsigned long long>(fnv1a(
            withoutPath(traced.report.metricsSummary(), sched_path))));
}

/** llgObjective timed on the placement embedded in an export. */
void
timeLlgObjective(const Case &c, const std::string &schedule,
                 std::vector<double> &out)
{
    const ab::json::Value doc = ab::json::parse(schedule);
    const ab::json::Value *cells = doc.find("placement");
    if (!cells)
        return; // swaps or relayout moved qubits: no final placement
    const ab::Grid grid(static_cast<int>(doc.numberOr("grid_rows", 0)),
                        static_cast<int>(doc.numberOr("grid_cols", 0)));
    const ab::Circuit circuit = ab::qasm::parseToCircuit(c.qasm, c.name);
    ab::Placement placement(grid, circuit.numQubits());
    std::vector<ab::CellId> ids;
    for (const ab::json::Value &v : cells->asArray())
        ids.push_back(static_cast<ab::CellId>(v.asNumber()));
    placement.assign(ids);
    std::vector<double> samples;
    static volatile long sink = 0;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point t0 = Clock::now();
        sink = ab::llgObjective(circuit, placement);
        samples.push_back(secondsSince(t0) * 1e6);
    }
    (void)sink;
    out.push_back(median(samples));
}

void
putLayerMetrics(Metrics &out, const LayerSums &s)
{
    auto pass = [&](const char *name) {
        auto it = s.pass_s.find(name);
        return it == s.pass_s.end() ? 0.0 : it->second;
    };
    const double placement = pass("initial-placement");
    const double exp = pass("schedule-export");
    out.put("qasm.parse_s", s.parse_s, "s");
    out.put("qasm.gates_per_s", ratio(s.gates, s.parse_s), "1/s");
    out.put("circuit.analysis_s", pass("parallelism-analysis"), "s");
    out.put("place.placement_s", placement, "s");
    out.put("place.placement_share", ratio(placement, s.compile_s), "ratio");
    out.put("place.anneal_proposals", s.proposals, "count");
    out.put("place.anneal_accepts", s.accepts, "count");
    out.put("place.accept_ratio", ratio(s.accepts, s.proposals), "ratio");
    // Without an anneal (snake layout) this is the whole placement time.
    out.put("place.us_per_proposal",
            placement * 1e6 / std::max(s.proposals, 1LL), "us");
    out.put("llg.objective_us", mean(s.llg_us), "us");
    out.put("sched.schedule_s", pass("schedule"), "s");
    out.put("sched.schedule_share", ratio(pass("schedule"), s.compile_s),
            "ratio");
    out.put("sched.maslov_s", pass("maslov-fallback"), "s");
    out.put("sched.instants", s.instants, "count");
    out.put("sched.layout_invocations", s.layout, "count");
    out.put("sched.swaps_planned", s.swaps_planned, "count");
    out.put("route.astar_calls", s.astar_calls, "count");
    out.put("route.astar_nodes", s.astar_nodes, "count");
    out.put("route.astar_misses", s.astar_misses, "count");
    out.put("route.astar_region_skips", s.region_skips, "count");
    out.put("route.routing_failures", s.failures, "count");
    out.put("route.braids_routed", s.braids, "count");
    out.put("route.success_ratio",
            ratio(s.braids, s.braids + s.failures), "ratio");
    out.put("route.failures_per_braid", ratio(s.failures, s.braids),
            "ratio");
    out.put("route.stack_peeled", s.stack_peeled, "count");
    out.put("analysis.export_s", exp, "s");
    out.put("analysis.export_mb", s.export_mb, "MB");
    out.put("analysis.certify_s", s.certify_s, "s");
    out.put("analysis.certify_mb_per_s", ratio(s.export_mb, s.certify_s),
            "MB/s");
    out.put("analysis.export_certify_share",
            ratio(exp + s.certify_s, s.total_s), "ratio");
    out.put("compiler.overhead_s", s.overhead_s, "s");
    out.put("telemetry.overhead_frac",
            ratio(s.total_s, s.untraced_total_s) - 1.0, "ratio");
}

/** Serve-layer numbers from a set of episodes. */
void
putServeMetrics(Metrics &out, const std::vector<Episode> &episodes)
{
    std::vector<double> hit_us, miss_us;
    long long hits = 0, misses = 0, shed = 0;
    for (const Episode &ep : episodes) {
        hits += ep.metrics.counter("serve.cache.hits");
        misses += ep.metrics.counter("serve.cache.misses");
        shed += ep.metrics.counter("serve.shed.queue_full") +
                ep.metrics.counter("serve.shed.deadline");
        for (const Reply &r : ep.replies)
            (parseReply(r.text).cached ? hit_us : miss_us)
                .push_back(r.client_us);
    }
    out.put("serve.hit_ratio", ratio(hits, hits + misses), "ratio");
    out.put("serve.hit_p50_us", median(hit_us), "us");
    out.put("serve.miss_p50_us", median(miss_us), "us");
    out.put("serve.shed", shed, "count");
}

// ---------------------------------------------------------------------
// Workload runners

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool small = false;
    bool setup_probe = false;
};

/** True when another op of duration @p last still fits the budget. */
bool
fits(Clock::time_point start, double seconds, double last)
{
    return secondsSince(start) + last <= seconds;
}

/** Compile workloads: round-robin text -> certified schedule. */
void
runCompileWorkload(const Args &args, const std::string &sched_path,
                   Tally &tally, Metrics &metrics)
{
    const std::vector<Case> cases =
        compileCases(args.workload, args.seed, args.small);
    std::vector<std::vector<double>> times(cases.size());
    std::vector<OpResult> first(cases.size());
    std::vector<std::string> summary(cases.size());

    // Traced mode: every traced compile's timings, plus the first
    // traced compile of each case in full (telemetry, export text).
    std::vector<std::vector<Timings>> traced(cases.size());
    std::vector<OpResult> first_traced(cases.size());
    ProfileNode tree;
    std::vector<std::string> counters_json(cases.size());

    // One check per compile: certified, and the same metricsSummary as
    // every earlier compile of the case, traced or not.
    auto check = [&](size_t i, const OpResult &r, const char *mode) {
        const std::string s = r.certified ? r.report.metricsSummary() : "";
        if (summary[i].empty())
            summary[i] = s;
        tally.note(r.certified && s == summary[i],
                   cases[i].name + " (" + mode + "): " +
                       (r.certified ? "metricsSummary differs from an "
                                      "earlier compile"
                                    : r.error));
    };

    size_t ops = 0;
    // Peak RSS after the first pass, so it does not depend on how many
    // repeats fit in the run.
    double peak_rss = 0;
    const Clock::time_point start = Clock::now();
    for (size_t pass = 0;; ++pass) {
        bool stopped = false;
        for (size_t i = 0; i < cases.size(); ++i) {
            const double last =
                times[i].empty() ? 0
                                 : times[i].back() +
                                       (args.trace ? traced[i].back().total_s
                                                   : 0);
            if (pass > 0 && !fits(start, args.seconds, last)) {
                stopped = true;
                break;
            }
            OpResult r = runPinnedOp(cases[i], sched_path, false);
            check(i, r, "untraced");
            times[i].push_back(r.total_s);
            ++ops;
            if (pass == 0) {
                // Free the trace now, so peak RSS does not depend on how
                // many compiles fit in the run.
                std::vector<ab::TraceEntry>().swap(r.report.result.trace);
                first[i] = std::move(r);
            }
            if (!args.trace)
                continue;
            OpResult t = runPinnedOp(cases[i], sched_path, true);
            check(i, t, "traced");
            traced[i].push_back(Timings::of(t));
            if (t.report.telemetry) {
                const std::string cj =
                    t.report.telemetry->metrics().toJson();
                if (counters_json[i].empty())
                    counters_json[i] = cj;
                tally.note(cj == counters_json[i],
                           cases[i].name +
                               ": telemetry work counters changed "
                               "between repeated compiles");
            }
            profileOp(tree, cases[i], t);
            if (pass == 0)
                first_traced[i] = std::move(t);
        }
        if (stopped)
            break;
        if (pass == 0)
            peak_rss = peakRssMb();
    }
    const double wall = secondsSince(start);

    std::printf("# %s seed=%llu trace=%d: %zu compiles in %.3f s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                ops, wall);
    printRowHeader();
    // Each circuit counts at its best time: on a shared host the slow
    // repeats measure other tenants, the fastest one the program.
    std::vector<double> per_circuit_ms, cp;
    double pass_s = 0, certified_gates = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
        printRow(cases[i], first[i].report, times[i]);
        per_circuit_ms.push_back(best(times[i]) * 1e3);
        pass_s += best(times[i]);
        if (first[i].certified)
            certified_gates += cases[i].gates;
        cp.push_back(first[i].report.cpRatio());
    }

    if (!args.trace) {
        // Rates are over one pass of the workload at per-circuit best
        // times, so they do not depend on which compiles fit in the run.
        metrics.put("gates_per_s", certified_gates / pass_s, "1/s");
        metrics.put("compile_geomean_ms", geomean(per_circuit_ms), "ms");
        metrics.put("makespan_cp_geomean", geomean(cp), "ratio");
        metrics.put("latency_p50_us", median(per_circuit_ms) * 1e3, "us");
        metrics.put("latency_p99_us", percentile(per_circuit_ms, 0.99) * 1e3,
                    "us");
        metrics.put("ops_per_s", cases.size() / pass_s, "1/s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
        return;
    }

    LayerSums s;
    for (size_t i = 0; i < cases.size(); ++i) {
        for (const Timings &t : traced[i])
            s.add(t, 1.0 / static_cast<double>(traced[i].size()));
        s.untraced_total_s += mean(times[i]);
        s.gates += cases[i].gates;
        const OpResult &ft = first_traced[i];
        s.export_mb += ft.export_bytes / 1e6;
        if (ft.report.telemetry)
            s.addCounters(ft.report.telemetry->metrics());
        if (!ft.schedule.empty())
            timeLlgObjective(cases[i], ft.schedule, s.llg_us);
        printDigests(cases[i].name, ft, sched_path);
    }
    std::printf("# profile (ms): %s\n", args.workload.c_str());
    std::printf("%-44s %7s %12s %10s %10s %12s\n", "span", "count", "total",
                "mean", "max", "self");
    printProfile(args.workload, tree, 0);
    putLayerMetrics(metrics, s);

    // The serve layer does not run on compile workloads; a fixed probe
    // (one miss and 15 hits of bv:8) keeps its metrics measured.
    const Case probe = probeCase();
    ab::serve::CompileService service(serviceConfig(16));
    std::vector<Episode> eps{runEpisode(
        service, {compileRequest(probe, 0)}, std::vector<size_t>(16, 0), 1)};
    for (const Reply &r : eps.front().replies)
        tally.note(parseReply(r.text).ok, "serve probe reply");
    putServeMetrics(metrics, eps);
}

/** serve-zipf: closed-loop episodes against a fresh service each. */
void
runServeWorkload(const Args &args, const std::string &sched_path,
                 Tally &tally, Metrics &metrics)
{
    const std::vector<Case> pool = servePool(args.seed, args.small);
    std::vector<std::string> requests;
    for (size_t i = 0; i < pool.size(); ++i)
        requests.push_back(compileRequest(pool[i], static_cast<int>(i)));
    const size_t per_episode = args.small ? 100 : 2000;

    std::vector<Episode> episodes;
    double busy = 0;
    double peak_rss = 0; // after the first episode, like the compile runs
    const Clock::time_point start = Clock::now();
    while (episodes.empty() ||
           fits(start, args.seconds, episodes.back().wall_s)) {
        const std::vector<size_t> seq = zipfSequence(
            pool.size(), per_episode,
            args.seed * 0x100000001b3ULL + episodes.size());
        // The service's workers and the clients inherit this mask.
        pinToFastestCpus(2);
        ab::serve::CompileService service(serviceConfig(1024));
        episodes.push_back(runEpisode(service, requests, seq, 2));
        if (episodes.size() == 1)
            peak_rss = peakRssMb();
        busy += episodes.back().wall_s;
        if (args.trace)
            break;
    }

    // Check: every reply ok, and each key's report bytes equal a fresh
    // uncached compile of the same request.
    std::vector<std::string> fresh_requests;
    for (size_t i = 0; i < pool.size(); ++i)
        fresh_requests.push_back(
            compileRequest(pool[i], static_cast<int>(i), false));
    std::vector<size_t> all(pool.size());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    pinToFastestCpus(2);
    ab::serve::CompileService uncached(serviceConfig(0));
    const Episode fresh = runEpisode(uncached, fresh_requests, all, 2);
    std::vector<ParsedReply> expected(pool.size());
    // Uncached compile times of each request: the fresh compile plus
    // every miss in the episodes.
    std::vector<std::vector<double>> uncached_s(pool.size());
    for (const Reply &r : fresh.replies) {
        expected[r.item] = parseReply(r.text);
        uncached_s[r.item].push_back(r.client_us / 1e6);
        tally.note(expected[r.item].ok,
                   pool[r.item].name + ": uncached compile failed");
    }
    // Latency and rates per episode; each metric reports its best
    // episode, as the compile workloads report each circuit's best time.
    std::vector<double> p50_us, p99_us, req_per_s, gates_per_s;
    size_t requests_sent = 0;
    for (const Episode &ep : episodes) {
        std::vector<double> latency_us;
        double gates = 0;
        for (const Reply &r : ep.replies) {
            const ParsedReply p = parseReply(r.text);
            const bool ok = p.ok && p.report == expected[r.item].report;
            tally.note(ok, pool[r.item].name +
                               ": reply differs from a fresh compile");
            latency_us.push_back(r.client_us);
            if (ok)
                gates += pool[r.item].gates;
            if (!p.cached)
                uncached_s[r.item].push_back(r.client_us / 1e6);
        }
        requests_sent += latency_us.size();
        p50_us.push_back(median(latency_us));
        p99_us.push_back(percentile(latency_us, 0.99));
        req_per_s.push_back(latency_us.size() / ep.wall_s);
        gates_per_s.push_back(gates / ep.wall_s);
    }

    std::printf("# serve-zipf seed=%llu trace=%d: %zu episodes, %zu "
                "requests in %.3f s\n",
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                episodes.size(), requests_sent, busy);
    for (size_t k = 0; k < episodes.size(); ++k)
        std::printf("# episode %zu: %.3f s, p50 %.1f us, p99 %.1f us, "
                    "%.1f req/s\n",
                    k + 1, episodes[k].wall_s, p50_us[k], p99_us[k],
                    req_per_s[k]);
    std::printf("%-24s %6s %8s %5s %8s %5s %11s %11s %9s\n", "request",
                "qubits", "gates", "grid", "braids", "reps", "best_ms",
                "median_ms", "mksp/cp");
    std::vector<double> cp, uncached_ms;
    for (size_t i = 0; i < pool.size(); ++i) {
        double c = 0;
        int grid = 0, braids = 0;
        if (expected[i].ok) {
            const ab::json::Value rep = ab::json::parse(expected[i].report);
            c = rep.numberOr("cp_ratio", 0);
            grid = static_cast<int>(rep.numberOr("grid", 0));
            braids = static_cast<int>(rep.numberOr("braids", 0));
        }
        cp.push_back(c);
        uncached_ms.push_back(best(uncached_s[i]) * 1e3);
        std::printf("%-24s %6d %8zu %5d %8d %5zu %11.3f %11.3f %9.4f\n",
                    pool[i].name.c_str(), pool[i].qubits, pool[i].gates,
                    grid, braids, uncached_s[i].size(), uncached_ms.back(),
                    median(uncached_s[i]) * 1e3, c);
    }

    if (!args.trace) {
        metrics.put("gates_per_s",
                    *std::max_element(gates_per_s.begin(), gates_per_s.end()),
                    "1/s");
        metrics.put("compile_geomean_ms", geomean(uncached_ms), "ms");
        metrics.put("makespan_cp_geomean", geomean(cp), "ratio");
        metrics.put("latency_p50_us", best(p50_us), "us");
        metrics.put("latency_p99_us", best(p99_us), "us");
        metrics.put("ops_per_s",
                    *std::max_element(req_per_s.begin(), req_per_s.end()),
                    "1/s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
        return;
    }

    // Compile layers on serve: each pool request compiled directly,
    // untraced then traced, text -> certified schedule.
    LayerSums s;
    ProfileNode tree;
    for (const Case &c : pool) {
        const OpResult u = runPinnedOp(c, sched_path, false);
        OpResult t = runPinnedOp(c, sched_path, true);
        tally.note(u.certified && t.certified &&
                       u.report.metricsSummary() ==
                           t.report.metricsSummary(),
                   c.name + ": certification or traced determinism: " +
                       u.error + t.error);
        if (!t.certified)
            continue;
        s.add(Timings::of(t), 1.0);
        s.untraced_total_s += u.total_s;
        s.gates += c.gates;
        s.export_mb += t.export_bytes / 1e6;
        s.addCounters(t.report.telemetry->metrics());
        timeLlgObjective(c, t.schedule, s.llg_us);
        printDigests(c.name, t, sched_path);
        profileOp(tree, c, t);
    }
    std::printf("# profile (ms): serve-zipf pool, direct compiles\n");
    std::printf("%-44s %7s %12s %10s %10s %12s\n", "span", "count", "total",
                "mean", "max", "self");
    printProfile(args.workload, tree, 0);
    putLayerMetrics(metrics, s);
    putServeMetrics(metrics, episodes);
}

/**
 * Set-up probe: from a fresh process to the first certified result of
 * the fixed bv:8 request. Compile workloads compile it directly; the
 * serve workload constructs a 2-worker CompileService and sends it.
 */
int
setupProbe(const Args &args, const std::string &sched_path)
{
    const Case probe = probeCase();
    const std::string request = compileRequest(probe, 0);
    pinToFastestCpus(args.workload == "serve-zipf" ? 2 : 1);
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    if (args.workload == "serve-zipf") {
        ab::serve::CompileService service(serviceConfig(16));
        ok = parseReply(service.handle(request)).ok;
        const double s = secondsSince(t0);
        service.shutdown();
        std::printf("%.9f\n", s);
    } else {
        ok = runOp(probe, sched_path, false).certified;
        std::printf("%.9f\n", secondsSince(t0));
    }
    return ok ? 0 : 1;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: autobraid_perfbench --workload "
                 "mid-anneal|paper-route|wide-route|serve-zipf --seed N "
                 "--seconds S --trace 0|1 [--small] [--setup-probe]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            args.workload = value();
        else if (a == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            args.trace = value() == "1";
        else if (a == "--small")
            args.small = true;
        else if (a == "--setup-probe")
            args.setup_probe = true;
        else
            return usage(("unknown argument " + a).c_str());
    }
    if (!isCompileWorkload(args.workload) && args.workload != "serve-zipf")
        return usage("unknown workload");

    try {
        // One export file per process, so concurrent runs never share it.
        const std::filesystem::path dir =
            std::filesystem::path(".bench_build/out") /
            (args.workload + "-" + std::to_string(getpid()));
        std::filesystem::create_directories(dir);
        const std::string sched_path = (dir / "schedule.json").string();
        if (args.setup_probe) {
            const int rc = setupProbe(args, sched_path);
            std::filesystem::remove_all(dir);
            return rc;
        }

        Tally tally;
        Metrics metrics;
        if (args.workload == "serve-zipf")
            runServeWorkload(args, sched_path, tally, metrics);
        else
            runCompileWorkload(args, sched_path, tally, metrics);
        std::filesystem::remove_all(dir);
        if (!args.trace)
            metrics.put("verified_frac",
                        1.0 - ratio(tally.failed, tally.attempted), "ratio");
        printResult(tally, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
