// pi2_perfbench: runs one benchmark workload in this (single-threaded)
// process and writes a raw JSON record of what it measured. perfbench/run.py
// builds it, runs it, checks the per-point fingerprints against
// perfbench/fingerprints.json and turns the record into the benchmark's
// metrics.
//
//   pi2_perfbench --workload NAME --seconds S --seed N --trace 0|1
//                 --spec campaigns/fig_resilience.json --tmp DIR --out FILE
//
// Workloads (see perfbench/README.md for why each exists):
//   dumbbell_mixed  coupled-pi2, 200 Mb/s, 20 ms, 10 Cubic + 10 DCTCP, 30 s
//   fluid_mix       4 x 2.5e4 fluid flows + 1 Cubic + 1 DCTCP, 100 s
//   campaign_grid   the 45-point quick grid of campaigns/fig_resilience.json
//
// A run does one untimed warm-up pass, then whole passes until S seconds
// have elapsed, timing the reference kernel and a short batch of set-ups
// (plan build + minimal-duration runs) after each pass. --trace 1 splits the time between plain and traced passes and
// then measures the per-layer metrics (layers.cpp). The seed rotates the
// campaign's point order; simulation seeds are the workloads' own (seed 1),
// so every point's fingerprint is fixed.
#include "workload.hpp"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>

#include "campaign_templates.hpp"
#include "check/oracles.hpp"
#include "durable/atomic_file.hpp"
#include "durable/journal.hpp"
#include "durable/result_codec.hpp"
#include "runner/parallel_runner.hpp"
#include "telemetry/recorder.hpp"

namespace pi2::perfbench {

// ---- JSON helpers -----------------------------------------------------------

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

void JsonObject::num(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields.emplace_back(key, buf);
}

void JsonObject::count(const std::string& key, std::uint64_t value) {
  fields.emplace_back(key, std::to_string(value));
}

void JsonObject::str(const std::string& key, const std::string& value) {
  fields.emplace_back(key, "\"" + bench::json_escape(value) + "\"");
}

void JsonObject::raw(const std::string& key, std::string json) {
  fields.emplace_back(key, std::move(json));
}

std::string JsonObject::text() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + bench::json_escape(fields[i].first) + "\": " + fields[i].second;
  }
  return out + "}";
}

// ---- CPU rotation -----------------------------------------------------------

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

// ---- host speed -----------------------------------------------------------

namespace {
volatile std::uint64_t reference_sink = 0;  // keeps the kernel's work live
}  // namespace

/// Times a fixed, simulator-like job that no change to the simulator can
/// alter: a 4096-entry timer heap plus an ordered map with inserts and
/// erases, driven by a fixed xorshift sequence. The host's speed drifts by
/// 15-20 % over minutes (co-tenants on shared cores); run.py divides that
/// drift out of every host-time metric with this time, taken on the same
/// CPU right after each pass.
double reference_kernel_s() {
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  const auto t0 = Clock::now();
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::map<std::uint32_t, std::uint64_t> table;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.emplace(x % 1000003, i);
    if (heap.size() > 4096) {
      sum += heap.top().first;
      heap.pop();
    }
    table[static_cast<std::uint32_t>(x % 8192)] += i;
    if ((i & 7) == 0) table.erase(static_cast<std::uint32_t>((x >> 20) % 8192));
  }
  reference_sink = sum + table.size();
  return seconds_since(t0);
}

// ---- tracer -----------------------------------------------------------------

std::size_t Tracer::open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? 0 : stack_.back() + 1;
  span.start_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  spans_[id].end_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::string Tracer::summary_json() const {
  struct Totals {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double child_s = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& span : spans_) {
    Totals& t = by_name[span.name];
    ++t.calls;
    t.total_s += span.end_s - span.start_s;
    if (span.parent > 0) {
      by_name[spans_[span.parent - 1].name].child_s += span.end_s - span.start_s;
    }
  }
  JsonObject out;
  for (const auto& [name, t] : by_name) {
    JsonObject row;
    row.count("calls", t.calls);
    row.num("total_s", t.total_s);
    row.num("self_s", t.total_s - t.child_s);
    out.raw(name, row.text());
  }
  return out.text();
}

// ---- workload definitions ---------------------------------------------------

namespace {

using scenario::AqmType;
using tcp::CcType;

/// The ROADMAP re-anchor point: one coupled-pi2 queue at 200 Mb/s, 20 ms
/// base RTT, 10 Cubic + 10 DCTCP, per-packet pipes, invariant monitor on.
scenario::DumbbellConfig dumbbell_mixed_config() {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = 200e6;
  cfg.aqm.type = AqmType::kCoupledPi2;
  cfg.duration = sim::from_seconds(30.0);
  cfg.stats_start = sim::from_seconds(10.0);
  cfg.seed = 1;
  cfg.check_invariants = true;
  for (const CcType cc : {CcType::kCubic, CcType::kDctcp}) {
    scenario::TcpFlowSpec spec;
    spec.cc = cc;
    spec.count = 10;
    spec.base_rtt = sim::from_millis(20);
    cfg.tcp_flows.push_back(spec);
  }
  return cfg;
}

/// 10^5 fluid flows in four specs (Reno/DCTCP x 20/100 ms) plus one Cubic
/// and one DCTCP packet flow over coupled-pi2; the link is provisioned at
/// 150 kb/s per fluid flow as micro_flow_scale does, ACKs batched per 1 ms.
constexpr double kFluidFlows = 1e5;
constexpr double kPerFlowBps = 150e3;

scenario::DumbbellConfig fluid_mix_config() {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = kFluidFlows * kPerFlowBps;
  cfg.aqm.type = AqmType::kCoupledPi2;
  cfg.stats_start = sim::from_seconds(10.0);
  cfg.seed = 1;
  cfg.ack_quantum = sim::from_millis(1);
  cfg.duration = sim::from_seconds(100.0);
  for (const CcType cc : {CcType::kCubic, CcType::kDctcp}) {
    scenario::TcpFlowSpec spec;
    spec.cc = cc;
    spec.base_rtt = sim::from_millis(100);
    cfg.tcp_flows.push_back(spec);
  }
  for (const CcType cc : {CcType::kReno, CcType::kDctcp}) {
    for (const int rtt_ms : {20, 100}) {
      scenario::FluidFlowSpec spec;
      spec.cc = cc;
      spec.count = kFluidFlows / 4.0;
      spec.base_rtt = sim::from_millis(rtt_ms);
      cfg.fluid_flows.push_back(spec);
    }
  }
  return cfg;
}

/// The campaign layer's public calls, in pi2_campaign's order: parse,
/// validate, expand (quick grid), resolve every fault preset, build configs.
void add_campaign_points(Plan& plan, const std::string& spec_path) {
  campaign::CampaignSpec spec;
  std::string err = campaign::load_spec(spec_path, spec);
  if (err.empty()) err = spec.validate();
  if (!err.empty()) throw std::runtime_error(spec_path + ": " + err);
  plan.expansion = campaign::expand(spec, campaign::ExpandOptions{});
  const campaign::Expansion& x = plan.expansion;
  if (x.template_id != campaign::TemplateId::kResilience) {
    throw std::runtime_error(spec_path + ": not a resilience campaign");
  }
  const int aqm = x.axis_of("aqm");
  const int fault = x.axis_of("fault_schedule");
  const int fluid = x.axis_of("fluid_flows");
  if (aqm < 0 || fault < 0 || fluid < 0) {
    throw std::runtime_error(spec_path + ": missing a resilience axis");
  }
  const faults::PresetContext ctx =
      bench::resilience_fault_context(x.link_mbps, x.rtt_ms, x.duration_s);
  std::map<std::string, faults::FaultSchedule> schedules;
  for (const campaign::AxisValue& value :
       x.axes[static_cast<std::size_t>(fault)].values) {
    faults::FaultSchedule schedule;
    const std::string fault_err =
        faults::resolve_schedule(value.text, ctx, &schedule);
    if (!fault_err.empty()) throw std::runtime_error(fault_err);
    schedules.emplace(value.text, std::move(schedule));
  }
  for (const campaign::CampaignPoint& cp : x.points) {
    Point p;
    p.index = cp.index;
    p.key = cp.key;
    p.aqm = cp.values[static_cast<std::size_t>(aqm)].text;
    p.fault = cp.values[static_cast<std::size_t>(fault)].text;
    p.fluid_flows = cp.values[static_cast<std::size_t>(fluid)].number;
    p.cfg = bench::resilience_config(
        bench::aqm_from_name(p.aqm), schedules.at(p.fault), p.fluid_flows,
        x.link_mbps, x.rtt_ms, x.duration_s, x.stats_start_s, cp.seed);
    plan.points.push_back(std::move(p));
  }
}

}  // namespace

Plan build_plan(const std::string& workload, const std::string& spec_path) {
  Plan plan;
  plan.workload = workload;
  if (workload == "dumbbell_mixed" || workload == "fluid_mix") {
    Point p;
    p.cfg = workload == "dumbbell_mixed" ? dumbbell_mixed_config()
                                         : fluid_mix_config();
    if (const std::string err = p.cfg.validate(); !err.empty()) {
      throw std::runtime_error(workload + ": " + err);
    }
    plan.points.push_back(std::move(p));
  } else if (workload == "campaign_grid") {
    plan.campaign = true;
    add_campaign_points(plan, spec_path);
  } else {
    throw std::runtime_error("unknown workload '" + workload +
                             "' (dumbbell_mixed, fluid_mix, campaign_grid)");
  }
  return plan;
}

// ---- passes -----------------------------------------------------------------

namespace {

/// The campaign record of one point, as its line in the pass's JSON file.
/// resilience_json_record writes "<sep>\n  {...}" with the separating comma
/// at the end of the previous line.
std::map<std::size_t, std::string> read_records(const std::string& path) {
  std::ifstream in{path};
  std::map<std::size_t, std::string> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  {\"index\": ", 0) != 0) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    const std::size_t index = std::stoul(line.substr(std::strlen("  {\"index\": ")));
    records[index] = line;
  }
  return records;
}

std::vector<PointRun> run_campaign_pass(const Plan& plan, const Env& env,
                                        Tracer* tracer, std::size_t* retries) {
  const campaign::Expansion& x = plan.expansion;
  const std::size_t n = plan.points.size();
  std::vector<PointRun> runs(n);
  const std::string telemetry_dir = env.tmp_dir + "/telemetry";
  const std::string json_path = env.tmp_dir + "/campaign.json";

  durable::JournalWriter journal{env.tmp_dir + "/campaign.journal", x.digest,
                                 /*keep_existing=*/false};
  if (!journal.healthy()) {
    throw std::runtime_error("journal: " + journal.status().message());
  }
  durable::ShardInfo shard;
  shard.present = true;
  shard.campaign = x.name;
  shard.digest = x.digest;
  shard.lo = 0;
  shard.hi = n;
  if (const durable::Status s = journal.append_shard(shard); !s.ok()) {
    throw std::runtime_error("journal: " + s.message());
  }
  durable::AtomicFile json{json_path};
  json.write("[");
  bool first = true;

  struct Outcome {
    scenario::RunResult result;
    std::shared_ptr<telemetry::Recorder> recorder;
  };
  std::vector<Clock::time_point> started(n);
  std::vector<std::size_t> span_ids(n);
  std::vector<bool> begun(n, false);
  std::size_t attempts = 0;
  const auto point_of = [&](std::size_t j) -> const Point& {
    return plan.points[(j + env.rotation) % n];
  };

  const runner::ParallelRunner pool{1};
  const runner::RunReport report = pool.run_ordered_guarded<Outcome>(
      n,
      [&](std::size_t j) {
        ++attempts;
        if (!begun[j]) {
          begun[j] = true;
          started[j] = Clock::now();
          if (tracer != nullptr) span_ids[j] = tracer->open("point");
        }
        const Point& p = point_of(j);
        Outcome outcome;
        telemetry::RecorderConfig rc;
        rc.dir = telemetry_dir;
        rc.run_id = bench::detail::point_run_id(p.index);
        outcome.recorder = std::make_shared<telemetry::Recorder>(rc);
        scenario::DumbbellConfig cfg = p.cfg;
        cfg.recorder = outcome.recorder.get();
        {
          const SpanScope span{tracer, "topology.run"};
          outcome.result = scenario::run_dumbbell(cfg);
        }
        return outcome;
      },
      [&](std::size_t j, runner::TaskStatus status, Outcome* outcome) {
        const Point& p = point_of(j);
        PointRun& run = runs[p.index];
        run.index = p.index;
        run.sim_s = sim::to_seconds(p.cfg.duration);
        if (status == runner::TaskStatus::kOk && outcome != nullptr) {
          std::string payload;
          {
            const SpanScope span{tracer, "durable.encode"};
            payload = durable::encode_result(outcome->result);
          }
          durable::Status appended;
          {
            const SpanScope span{tracer, "durable.journal_append"};
            appended = journal.append_point(p.key, payload);
          }
          {
            const SpanScope span{tracer, "output.json_record"};
            bench::resilience_json_record(
                json, first, p.index, p.aqm.c_str(), p.fault.c_str(),
                p.fluid_flows, p.cfg.seed, x.link_mbps, x.rtt_ms,
                outcome->result);
          }
          run.ok = appended.ok() && outcome->recorder->ok();
          if (!appended.ok()) run.error = "journal: " + appended.message();
          if (!outcome->recorder->ok()) {
            run.error = "telemetry: " + outcome->recorder->status().message();
          }
          run.result = std::move(outcome->result);
        } else {
          run.error = std::string("point ") + runner::to_string(status);
        }
        run.wall_s = seconds_since(started[j]);
        if (tracer != nullptr && begun[j]) tracer->close(span_ids[j]);
      });

  json.write("\n]\n");
  if (const durable::Status s = json.commit(); !s.ok()) {
    throw std::runtime_error("campaign JSON: " + s.message());
  }
  const std::map<std::size_t, std::string> records = read_records(json_path);
  for (PointRun& run : runs) {
    const auto it = records.find(run.index);
    if (it == records.end()) {
      run.ok = false;
      if (run.error.empty()) run.error = "no JSON record";
      continue;
    }
    durable::Fnv1a h;
    h.mix_string(it->second);
    run.record_digest = h.state;
  }
  for (const runner::TaskFailure& failure : report.failures) {
    PointRun& run = runs[point_of(failure.index).index];
    run.error += ": " + failure.message;
  }
  if (retries != nullptr) *retries += attempts - n;
  return runs;
}

}  // namespace

std::vector<PointRun> run_pass(const Plan& plan, const Env& env,
                               Tracer* tracer, std::size_t* retries) {
  if (plan.campaign) return run_campaign_pass(plan, env, tracer, retries);
  const std::size_t n = plan.points.size();
  std::vector<PointRun> runs(n);
  for (std::size_t j = 0; j < n; ++j) {
    const Point& p = plan.points[(j + env.rotation) % n];
    PointRun& run = runs[p.index];
    run.index = p.index;
    run.sim_s = sim::to_seconds(p.cfg.duration);
    const SpanScope point_span{tracer, "point"};
    const auto t0 = Clock::now();
    try {
      const SpanScope span{tracer, "topology.run"};
      run.result = scenario::run_dumbbell(p.cfg);
      run.ok = true;
    } catch (const std::exception& ex) {
      run.error = ex.what();
    }
    run.wall_s = seconds_since(t0);
  }
  return runs;
}

namespace {

// ---- fingerprint ------------------------------------------------------------

/// Deterministic observables of one point: any change in what the simulator
/// computed shows here, whatever the host's speed.
JsonObject fingerprint(const PointRun& run) {
  const scenario::RunResult& r = run.result;
  JsonObject fp;
  fp.count("events", r.events_executed);
  fp.count("clamped_events", r.clamped_events);
  const auto& c = r.counters;
  fp.count("enqueued", static_cast<std::uint64_t>(c.enqueued));
  fp.count("forwarded", static_cast<std::uint64_t>(c.forwarded));
  fp.count("marked", static_cast<std::uint64_t>(c.marked));
  fp.count("aqm_dropped", static_cast<std::uint64_t>(c.aqm_dropped));
  fp.count("tail_dropped", static_cast<std::uint64_t>(c.tail_dropped));
  fp.count("fault_dropped", static_cast<std::uint64_t>(c.fault_dropped));
  for (const auto& [name, band] :
       {std::pair{"band_l", &r.band_l}, std::pair{"band_c", &r.band_c}}) {
    const std::string prefix = name;
    fp.count(prefix + ".enqueued", static_cast<std::uint64_t>(band->enqueued));
    fp.count(prefix + ".marked", static_cast<std::uint64_t>(band->marked));
    fp.count(prefix + ".aqm_dropped",
             static_cast<std::uint64_t>(band->aqm_dropped));
    fp.count(prefix + ".tail_dropped",
             static_cast<std::uint64_t>(band->tail_dropped));
  }
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
  durable::Fnv1a flows;
  for (const scenario::FlowResult& f : r.flows) {
    retransmits += f.retransmits;
    timeouts += f.timeouts;
    flows.mix_u64(static_cast<std::uint64_t>(f.retransmits));
    flows.mix_u64(static_cast<std::uint64_t>(f.timeouts));
  }
  fp.count("retransmits", static_cast<std::uint64_t>(retransmits));
  fp.count("timeouts", static_cast<std::uint64_t>(timeouts));
  fp.str("flows_digest", hex64(flows.state));
  fp.count("fluid_ticks", r.fluid.ticks);
  fp.count("guard_events", r.guard_events);
  const auto& f = r.fault_counters;
  fp.count("faults_applied",
           static_cast<std::uint64_t>(f.dropped + f.bleached + f.reordered +
                                      f.rate_changes + f.rtt_changes));
  fp.count("invariant_violations", r.violations.size());
  fp.str("result_digest", hex64(check::result_digest(r)));
  if (run.record_digest != 0) fp.str("record_digest", hex64(run.record_digest));
  return fp;
}

// ---- set-up -----------------------------------------------------------------

/// Everything before the first simulated event that can be timed from
/// outside: plan build (campaign: parse/validate/expand/resolve) plus a
/// minimal-duration run of every point's config, which times topology
/// wiring and teardown. A fault event must start before the run ends, so
/// the minimal runs carry no fault schedule.
double time_setup(const std::string& workload, const std::string& spec_path) {
  const auto t0 = Clock::now();
  const Plan plan = build_plan(workload, spec_path);
  for (const Point& p : plan.points) {
    scenario::DumbbellConfig cfg = p.cfg;
    cfg.duration = sim::from_millis(1);
    cfg.stats_start = sim::kTimeZero;
    cfg.faults = faults::FaultSchedule{};
    (void)scenario::run_dumbbell(cfg);
  }
  return seconds_since(t0);
}

std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Args {
  std::string workload;
  double seconds = 10.0;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string spec = "campaigns/fig_resilience.json";
  std::string tmp_dir;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      a.workload = value;
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value);
    } else if (arg == "--seed") {
      a.seed = std::stoull(value);
    } else if (arg == "--trace") {
      a.trace = value == "1";
    } else if (arg == "--spec") {
      a.spec = value;
    } else if (arg == "--tmp") {
      a.tmp_dir = value;
    } else if (arg == "--out") {
      a.out = value;
    } else {
      throw std::runtime_error("unknown flag " + arg);
    }
  }
  if (a.workload.empty() || a.tmp_dir.empty() || a.out.empty()) {
    throw std::runtime_error("--workload, --tmp and --out are required");
  }
  if (!(a.seconds > 0.0)) {
    throw std::runtime_error("--seconds must be positive");
  }
  return a;
}

/// What the measured passes leave behind: one compact row per point (the
/// full RunResults are dropped as soon as they are fingerprinted, so memory
/// stays at one pass's worth), one summary per pass, and the last pass's
/// results for the per-layer replays.
struct Log {
  std::string point_rows;
  std::size_t point_count = 0;
  std::vector<JsonObject> passes;
  std::vector<PointRun> last_pass;
};

void add_point_row(Log& log, const PointRun& run) {
  JsonObject row;
  row.count("index", run.index);
  row.raw("ok", run.ok ? "true" : "false");
  if (!run.error.empty()) row.str("error", run.error);
  row.num("wall_s", run.wall_s);
  row.num("sim_s", run.sim_s);
  row.raw("fp", fingerprint(run).text());
  log.point_rows += (log.point_count++ > 0 ? ",\n " : "") + row.text();
}

/// Whole passes until `seconds` elapse (at least two). After each pass, on
/// the same CPU and outside the pass's timing, the reference kernel is timed
/// and then `between` runs with the pass's wall time and its summary row.
void measure(const Plan& plan, const Env& env, double seconds, Tracer* tracer,
             Log& log, std::size_t& retries,
             const std::function<void(double, JsonObject&)>& between = {}) {
  const auto t0 = Clock::now();
  std::size_t passes = 0;
  CpuRotation cpus;
  do {
    cpus.next();
    const auto pass_t0 = Clock::now();
    std::vector<PointRun> runs = run_pass(plan, env, tracer, &retries);
    JsonObject pass;
    const double pass_wall_s = seconds_since(pass_t0);
    pass.num("wall_s", pass_wall_s);
    double sim_s = 0.0;
    std::uint64_t events = 0;
    std::uint64_t enqueued = 0;
    for (const PointRun& run : runs) {
      sim_s += run.sim_s;
      events += run.result.events_executed;
      enqueued += static_cast<std::uint64_t>(run.result.counters.enqueued);
      add_point_row(log, run);
    }
    pass.num("sim_s", sim_s);
    pass.count("events", events);
    pass.count("enqueued", enqueued);
    pass.num("ref_s", reference_kernel_s());
    if (between) between(pass_wall_s, pass);
    log.passes.push_back(std::move(pass));
    log.last_pass = std::move(runs);
    ++passes;
  } while (seconds_since(t0) < seconds || passes < 2);
}

/// Set-up samples are taken in short batches between the measured passes,
/// so that they see the same host conditions as the passes (and the pass's
/// reference kernel) do; each batch lasts 3 % of the pass before it (at
/// least one set-up).
std::vector<double> time_setup_batch(const Args& args, double pass_wall_s) {
  constexpr double kSetupShare = 0.03;
  std::vector<double> samples;
  const auto t0 = Clock::now();
  do {
    samples.push_back(time_setup(args.workload, args.spec));
  } while (seconds_since(t0) < kSetupShare * pass_wall_s);
  return samples;
}

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.9g", i > 0 ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string pass_rows(const std::vector<JsonObject>& passes) {
  std::string out = "[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    out += (i > 0 ? ", " : "") + passes[i].text();
  }
  return out + "]";
}

int run_main(const Args& args) {
  std::filesystem::create_directories(args.tmp_dir);
  JsonObject record;
  record.str("workload", args.workload);
  record.count("seed", args.seed);
  record.count("trace", args.trace ? 1 : 0);
  record.num("seconds", args.seconds);

  const Plan plan = build_plan(args.workload, args.spec);
  Env env;
  env.tmp_dir = args.tmp_dir;
  env.spec_path = args.spec;
  env.rotation = static_cast<std::size_t>(args.seed % plan.points.size());

  std::size_t retries = 0;
  (void)run_pass(plan, env, nullptr, &retries);  // warm-up, untimed

  const double cpu0 = thread_cpu_s();
  const auto wall0 = Clock::now();
  Log plain;
  // The traced run splits its time: plain passes, traced passes, more plain
  // passes (so host drift hits both sides alike), then the per-layer
  // replays. Only --trace 0 results feed the end-to-end metrics.
  const double measure_s = args.trace ? args.seconds * 0.3 : args.seconds;
  measure(plan, env, measure_s, nullptr, plain, retries,
          [&](double pass_wall_s, JsonObject& pass) {
            pass.raw("setup_s", number_list(time_setup_batch(args, pass_wall_s)));
          });
  record.num("cpu_s", thread_cpu_s() - cpu0);
  record.num("measure_wall_s", seconds_since(wall0));
  record.count("peak_rss_kb", peak_rss_kb());

  std::string point_rows = plain.point_rows;
  if (args.trace) {
    Tracer tracer;
    Log traced;
    measure(plan, env, measure_s, &tracer, traced, retries);
    measure(plan, env, measure_s * 0.5, nullptr, plain, retries);
    record.raw("traced_passes", pass_rows(traced.passes));
    record.raw("spans", tracer.summary_json());
    record.raw("layers", measure_layers(plan, env, traced.last_pass,
                                        args.seconds * 0.25)
                             .text());
    point_rows = plain.point_rows + ",\n " + traced.point_rows;
  }
  record.count("retries", retries);
  record.raw("passes", pass_rows(plain.passes));
  record.raw("points", "[" + point_rows + "]");

  std::ofstream out{args.out};
  out << record.text() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "pi2_perfbench: cannot write %s\n", args.out.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

}  // namespace pi2::perfbench

int main(int argc, char** argv) {
  try {
    return pi2::perfbench::run_main(pi2::perfbench::parse_args(argc, argv));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "pi2_perfbench: %s\n", ex.what());
    return 2;
  }
}
