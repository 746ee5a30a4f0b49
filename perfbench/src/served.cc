// served-mix: an in-process Server (batch 2, threads = the budget) driven
// by a closed loop of client sessions, each calling Client::Submit then
// Client::Wait. The spec stream is seeded and every spec is distinct: half
// FOSC in the constraint scenario (10/20/50 % of a 20 %-per-class pool; a
// 10 % pool leaves some small-set folds without test constraints, and the
// job fails), half MPCK in the label scenario (5/10/20 %), paper grids,
// 5 folds, over the resolver's datasets. About 90 % of jobs name a
// dataset the stream already used; about 10 % name a fresh seed or ALOI
// index, so cold jobs race to build the same geometry while warm ones read.
//
// The result and artifact-store directories are created fresh for every
// server under the run directory (inside the checkout, on its disk: the
// publish fsync is part of what a caller waits for).

#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/job.h"
#include "data/paper_suites.h"
#include "service/client.h"
#include "service/dataset_resolver.h"
#include "service/result_store.h"
#include "service/server.h"
#include "stages.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace cvcp;  // NOLINT

namespace {

constexpr int kSessions = 4;
constexpr int kBatch = 2;
constexpr int kFolds = 5;
constexpr double kWarmupMs = 2000.0;
constexpr size_t kReuseWindow = 20;     ///< recent datasets a reuse picks from
constexpr size_t kReferenceJobs = 32;   ///< reports behind the reference digest
constexpr size_t kTracedJobs = 600;     ///< jobs of the traced served pass
constexpr size_t kReplayJobs = 120;     ///< jobs replayed through the tracer
constexpr size_t kHiddenJobs = 60;      ///< jobs whose hidden stages are timed
constexpr size_t kGeometryDatasets = 40;
constexpr size_t kSampleJobs = 200;     ///< RunJob and ResultStore::Put samples
constexpr size_t kPoolBytes = size_t{256} << 20;

std::vector<JobSpec> MakeSpecStream(uint64_t seed, size_t count,
                                    const std::map<std::string, int>& classes) {
  Rng rng(Rng(seed).Fork(4).seed());
  std::vector<std::string> fresh_names;
  for (const auto& [name, k] : classes) {
    if (name != "iris") fresh_names.push_back(name);  // iris has no seed
  }
  struct Ref {
    std::string name;
    uint64_t seed;
    uint64_t index;
  };
  std::vector<Ref> known = {{"iris", 1, 0}};
  const std::vector<int> minpts = DefaultMinPtsGrid();
  const double constraint_fractions[] = {0.10, 0.20, 0.50};
  const double label_fractions[] = {0.05, 0.10, 0.20};
  std::vector<JobSpec> specs;
  specs.reserve(count);
  // The mix is stratified by stream position, so every seed yields the same
  // composition and only the draws differ: FOSC and MPCK alternate, every
  // tenth job names a fresh dataset (cycling through the names), and the
  // oracle fractions cycle. The other jobs reuse one of the last
  // kReuseWindow datasets, picked by a fixed scramble of their position, so
  // which name they reuse does not depend on the seed and no early dataset
  // dominates a long run.
  for (size_t i = 0; i < count; ++i) {
    Ref ref;
    if (i % 10 == 9) {
      ref.name = fresh_names[(i / 10) % fresh_names.size()];
      ref.seed = rng.NextUint64() >> 16;
      ref.index = ref.name == "aloi" ? rng.Index(100) : 0;
      known.push_back(ref);
    } else {
      uint64_t scramble = i;
      const size_t window = std::min(known.size(), kReuseWindow);
      ref = known[known.size() - 1 - SplitMix64(scramble) % window];
    }
    JobSpec spec;
    spec.dataset = ref.name;
    spec.dataset_seed = ref.seed;
    spec.dataset_index = ref.index;
    spec.n_folds = kFolds;
    if (i % 2 == 0) {
      spec.clusterer = "fosc";
      spec.scenario = SupervisionKind::kConstraints;
      spec.pool_fraction = 0.20;
      spec.constraint_fraction = constraint_fractions[(i / 2) % 3];
      spec.param_grid = minpts;
    } else {
      spec.clusterer = "mpck";
      spec.scenario = SupervisionKind::kLabels;
      spec.label_fraction = label_fractions[(i / 2) % 3];
      spec.param_grid = MakeKGrid(classes.at(ref.name));
    }
    spec.supervision_seed = rng.NextUint64();
    spec.cvcp_seed = rng.NextUint64();
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct Service {
  std::string dir;
  std::unique_ptr<Server> server;
  std::vector<Client> clients;
};

Status StartService(const std::string& dir, int threads,
                    std::function<void(const JobSpec&)> hook,
                    Service* service) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServerConfig config;
  config.socket_path = dir + "/s.sock";
  config.results_dir = dir + "/results";
  config.store_dir = dir + "/store";
  config.batch = kBatch;
  config.threads = threads;
  config.cache_capacity_bytes = kPoolBytes;
  config.before_job_hook = std::move(hook);
  service->dir = dir;
  service->server = std::make_unique<Server>(config);
  CVCP_RETURN_IF_ERROR(service->server->Start());
  for (int s = 0; s < kSessions; ++s) {
    CVCP_ASSIGN_OR_RETURN(Client client, Client::Connect(config.socket_path));
    service->clients.push_back(std::move(client));
  }
  return Status::OK();
}

void StopService(Service* service) {
  if (service->server) service->server->Stop(/*drain=*/true);
  service->clients.clear();
  service->server.reset();
  std::filesystem::remove_all(service->dir);
}

struct JobTiming {
  double sent = 0.0;
  double accepted = 0.0;
  double started = 0.0;  ///< stamped by the executor hook (traced pass)
  double done = 0.0;
};

/// What one server's sessions saw, indexed by stream position.
struct Pass {
  explicit Pass(size_t n) : timings(n), reports(n), errors(n) {}
  std::vector<JobTiming> timings;
  std::vector<std::string> reports;
  std::vector<Status> errors;
};

/// One stretch of the closed loop: specs [begin, end).
struct Stretch {
  size_t begin = 0;
  size_t end = 0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  StatsReply before, after;
};

/// Drives the closed loop from spec `begin` until `seconds` pass or spec
/// `limit` is reached; jobs issued before the deadline run to completion.
Stretch Drive(Service* service, const std::vector<JobSpec>& specs,
              size_t begin, size_t limit, double seconds, Pass* pass) {
  Stretch stretch;
  stretch.begin = begin;
  stretch.before = service->server->Stats();
  std::atomic<size_t> next{begin};
  const double cpu_start = ProcessCpuMs();
  const double start = NowMs();
  const double deadline = start + seconds * 1e3;
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      Client& client = service->clients[static_cast<size_t>(s)];
      while (NowMs() < deadline) {
        const size_t i = next.fetch_add(1);
        if (i >= limit) break;
        JobTiming& t = pass->timings[i];
        t.sent = NowMs();
        Result<SubmitReply> submitted = client.Submit(specs[i]);
        t.accepted = NowMs();
        if (!submitted.ok()) {
          pass->errors[i] = submitted.status();
          continue;
        }
        Result<ReportReply> reply = client.Wait(submitted->job_id);
        t.done = NowMs();
        if (!reply.ok()) {
          pass->errors[i] = reply.status();
          continue;
        }
        pass->reports[i] = std::move(reply->report_bytes);
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  stretch.wall_ms = NowMs() - start;
  stretch.cpu_ms = ProcessCpuMs() - cpu_start;
  stretch.end = std::min(next.load(), limit);
  stretch.after = service->server->Stats();
  return stretch;
}

/// The served bytes each spec must produce: RunJob in process.
std::vector<std::string> ExpectedReports(const std::vector<JobSpec>& specs,
                                         size_t count, int threads,
                                         DatasetResolver* resolver,
                                         DatasetCachePool* pool) {
  std::vector<std::string> expected(count);
  ExecutionContext exec;
  exec.threads = threads;
  ParallelFor(exec, count, [&](size_t i) {
    Result<const Dataset*> data = resolver->Resolve(specs[i]);
    if (!data.ok()) return;
    JobContext context;
    context.cache = pool->For((*data)->points());
    context.exec = ExecutionContext::Serial();
    Result<CvcpReport> report = RunJob(**data, specs[i], context);
    if (report.ok()) expected[i] = EncodeCvcpReport(report.value());
  });
  return expected;
}

uint64_t ContentHash(const Dataset& data) {
  const std::vector<double>& values = data.points().data();
  return Hash64(values.data(), values.size() * sizeof(double));
}

double Delta(uint64_t after, uint64_t before) {
  return static_cast<double>(after - before);
}

}  // namespace

RunResult RunServedWorkload(const WorkloadOptions& options) {
  RunResult result;
  const std::string service_dir = options.run_dir + "/service";
  const size_t capacity =
      std::max(kTracedJobs, static_cast<size_t>(options.seconds * 3000) + 1000);

  // Set-up: learn each dataset's class count (for the k grids), generate
  // the spec stream, start the server and connect the sessions. The last
  // service stays up for the window.
  std::vector<JobSpec> specs;
  Service service;
  Status started;
  const std::vector<double> setup_ms = TimeSetups([&] {
    if (service.server) StopService(&service);
    const double start = NowMs();
    std::map<std::string, int> classes;
    DatasetResolver probe;
    for (const std::string& name : KnownDatasetNames()) {
      JobSpec ref;
      ref.dataset = name;
      Result<const Dataset*> data = probe.Resolve(ref);
      if (data.ok()) classes[name] = (*data)->NumClasses();
    }
    specs = MakeSpecStream(options.seed, capacity, classes);
    started = StartService(service_dir, options.threads, nullptr, &service);
    return NowMs() - start;
  });
  if (!started.ok()) {
    result.attempted = 1;
    result.failed = 1;
    result.notes.push_back("server start: " + started.ToString());
    StopService(&service);
    return result;
  }

  // Warm-up (the process's first second runs several times slower: heap
  // growth and first-touch page faults, paid once per server life), then
  // the measured window on the same server, continuing the stream.
  Pass window(specs.size());
  const Stretch warmup =
      Drive(&service, specs, 0, capacity, kWarmupMs / 1e3, &window);
  const Stretch measured =
      Drive(&service, specs, warmup.end, capacity, options.seconds, &window);
  const double rss_mb = PeakRssMb();
  StopService(&service);
  if (measured.end == capacity) {
    result.notes.push_back("spec stream exhausted before the window ended");
  }

  // Every served report against an in-process RunJob, outside the window.
  DatasetResolver resolver;
  DatasetCachePool replay_pool(kPoolBytes);
  const size_t replayed =
      std::max(measured.end, options.trace ? kTracedJobs : size_t{0});
  const std::vector<std::string> expected =
      ExpectedReports(specs, replayed, options.threads, &resolver,
                      &replay_pool);

  std::vector<double> latencies;
  uint64_t reference = Hash64("perfbench-served");
  for (size_t i = 0; i < measured.end; ++i) {
    ++result.attempted;
    if (!window.errors[i].ok()) {
      ++result.failed;
      if (result.notes.size() < 8) {
        const JobSpec& spec = specs[i];
        result.notes.push_back(Format(
            "job %zu (%s on %s seed %llu, fractions %g/%g): %s", i,
            spec.clusterer.c_str(), spec.dataset.c_str(),
            static_cast<unsigned long long>(spec.dataset_seed),
            spec.label_fraction, spec.constraint_fraction,
            window.errors[i].ToString().c_str()));
      }
      continue;
    }
    if (window.reports[i] != expected[i]) {
      ++result.failed;
      ++result.mismatched;
      continue;
    }
    if (i < kReferenceJobs) reference = Hash64(window.reports[i], reference);
    if (i >= measured.begin) {
      latencies.push_back(window.timings[i].done - window.timings[i].sent);
    }
  }
  result.reference_digest =
      Format("%016llx", static_cast<unsigned long long>(reference));
  result.reference_ops = kReferenceJobs;
  const uint64_t completed = latencies.size();
  const double done = completed > 0 ? static_cast<double>(completed) : 1.0;

  Metrics e2e;
  SetEndToEnd(&e2e, "ops_per_s", done / (measured.wall_ms / 1e3), completed);
  SetEndToEnd(&e2e, "cpu_ms_per_op", measured.cpu_ms / done, completed);
  SetEndToEnd(&e2e, "job_p50_ms", Percentile(latencies, 50), completed);
  SetEndToEnd(&e2e, "job_p99_ms", Percentile(latencies, 99), completed);
  SetEndToEnd(&e2e, "setup_s", Percentile(setup_ms, 50) / 1e3,
              setup_ms.size());
  SetEndToEnd(&e2e, "peak_rss_mb", rss_mb);
  if (!options.trace) {
    result.metrics = std::move(e2e);
    return result;
  }

  // Traced served pass: a fresh server over the first jobs of the same
  // stream, with the executor hook stamping when each job starts.
  Metrics layers;
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < kTracedJobs; ++i) index_of[JobSpecHash(specs[i])] = i;
  Pass traced(specs.size());
  std::vector<JobTiming>* timings = &traced.timings;
  started = StartService(
      service_dir, options.threads,
      [timings, &index_of](const JobSpec& spec) {
        auto it = index_of.find(JobSpecHash(spec));
        if (it != index_of.end()) (*timings)[it->second].started = NowMs();
      },
      &service);
  Stretch traced_run;
  if (started.ok()) {
    traced_run = Drive(&service, specs, 0, kTracedJobs, /*seconds=*/1e9,
                       &traced);
  } else {
    result.notes.push_back("traced server start: " + started.ToString());
  }
  StopService(&service);

  std::vector<double> submit_ms, queue_ms, exec_ms;
  std::set<uint64_t> distance_keys;
  std::set<std::pair<uint64_t, int>> model_keys;
  std::vector<const Dataset*> fosc_datasets;
  for (size_t i = 0; i < traced_run.end; ++i) {
    ++result.attempted;
    if (!traced.errors[i].ok() || traced.reports[i] != expected[i]) {
      ++result.failed;
      if (traced.errors[i].ok()) ++result.mismatched;
      continue;
    }
    const JobTiming& t = traced.timings[i];
    submit_ms.push_back(t.accepted - t.sent);
    queue_ms.push_back(std::max(0.0, t.started - t.accepted));
    exec_ms.push_back(t.done - std::max(t.started, t.accepted));
    if (specs[i].clusterer != "fosc") continue;
    Result<const Dataset*> data = resolver.Resolve(specs[i]);
    if (!data.ok()) continue;
    const uint64_t content = ContentHash(**data);
    if (distance_keys.insert(content).second) fosc_datasets.push_back(*data);
    for (int min_pts : specs[i].param_grid) {
      model_keys.emplace(content, min_pts);
    }
  }
  const uint64_t samples = submit_ms.size();
  SetLayer(&layers, "server.submit_ms_p50", Percentile(submit_ms, 50), samples);
  SetLayer(&layers, "server.queue_wait_ms_p50", Percentile(queue_ms, 50),
           samples);
  SetLayer(&layers, "server.queue_wait_ms_p99", Percentile(queue_ms, 99),
           samples);
  SetLayer(&layers, "server.exec_ms_p50", Percentile(exec_ms, 50), samples);
  SetLayer(&layers, "server.exec_ms_p99", Percentile(exec_ms, 99), samples);
  const StatsReply& a = traced_run.after;
  const StatsReply& b = traced_run.before;
  SetLayer(&layers, "server.rejected",
           Delta(a.rejected_queue_full + a.rejected_memory,
                 b.rejected_queue_full + b.rejected_memory));
  SetLayer(&layers, "dataset_cache.model_builds",
           Delta(a.model_builds, b.model_builds));
  SetLayer(&layers, "dataset_cache.model_hits",
           Delta(a.model_hits, b.model_hits));
  SetLayer(&layers, "dataset_cache.model_loads",
           Delta(a.model_loads, b.model_loads));
  SetLayer(&layers, "dataset_cache.distance_builds",
           Delta(a.distance_builds, b.distance_builds));
  SetLayer(&layers, "dataset_cache.model_build_useful_ratio",
           UsefulRatio(model_keys.size(), a.model_builds - b.model_builds),
           a.model_builds - b.model_builds);
  SetLayer(&layers, "dataset_cache.distance_build_useful_ratio",
           UsefulRatio(distance_keys.size(),
                       a.distance_builds - b.distance_builds),
           a.distance_builds - b.distance_builds);
  SetLayer(&layers, "artifact_store.disk_misses",
           Delta(a.disk_misses, b.disk_misses));
  SetLayer(&layers, "artifact_store.disk_hits",
           Delta(a.disk_hits, b.disk_hits));
  SetLayer(&layers, "parallel.cpu_util",
           measured.cpu_ms /
               (measured.wall_ms * static_cast<double>(options.threads)));

  // Engine layers: the first jobs replayed one at a time through
  // BuildJobSupervision + RunCvcp with the traced clusterers, each job its
  // own op, on a fresh pool (RunJob does not prewarm, so lookups include
  // the inline builds a cold job makes). Each job runs serially, so its
  // spans cover exactly the process's busy time and no idle fan-out tail.
  // Each traced job is paired with an untraced replay on a second fresh
  // pool for the tracing overhead.
  EngineCounters counters;
  const FoscOpticsDendClusterer fosc;
  const MpckMeansClusterer mpck;
  const TracedFosc traced_fosc(fosc, &counters);
  const TracedMpck traced_mpck(MpckMeansConfig{}, &counters);
  auto replay = [&](const JobSpec& spec, const Dataset& data,
                    const SemiSupervisedClusterer& clusterer,
                    DatasetCachePool* pool) -> Result<CvcpReport> {
    CVCP_ASSIGN_OR_RETURN(Supervision supervision,
                          BuildJobSupervision(data, spec));
    CvcpConfig config;
    config.cv.n_folds = spec.n_folds;
    config.cv.stratified = spec.stratified;
    config.cv.exec = ExecutionContext::Serial();
    config.param_grid = spec.param_grid;
    config.collect_timings = false;
    Rng rng(spec.cvcp_seed);
    return RunCvcp(data, supervision, clusterer, config, &rng,
                   pool->For(data.points()));
  };
  DatasetCachePool plain_pool(kPoolBytes);
  DatasetCachePool engine_pool(kPoolBytes);
  EngineTrace trace;
  double plain_ms = 0.0, traced_replay_ms = 0.0;
  for (size_t i = 0; i < std::min(kReplayJobs, replayed); ++i) {
    const JobSpec& spec = specs[i];
    Result<const Dataset*> data = resolver.Resolve(spec);
    if (!data.ok()) continue;
    const bool is_fosc = spec.clusterer == "fosc";
    double start = NowMs();
    Result<CvcpReport> plain =
        replay(spec, **data,
               is_fosc ? static_cast<const SemiSupervisedClusterer&>(fosc)
                       : mpck,
               &plain_pool);
    plain_ms += NowMs() - start;
    EnableTracing();
    const double cpu_before = ProcessCpuMs();
    start = NowMs();
    BeginOp(i, "op.job");
    Result<CvcpReport> report = replay(
        spec, **data,
        is_fosc ? static_cast<const SemiSupervisedClusterer&>(traced_fosc)
                : traced_mpck,
        &engine_pool);
    EndOp();
    traced_replay_ms += NowMs() - start;
    trace.busy_ms += ProcessCpuMs() - cpu_before;
    DisableTracing();
    ++trace.ops;
    ++result.attempted;
    if (!plain.ok() || !report.ok() ||
        EncodeCvcpReport(report.value()) != expected[i] ||
        EncodeCvcpReport(plain.value()) != expected[i]) {
      ++result.failed;
      ++result.mismatched;
      result.notes.push_back("traced replay of job " + std::to_string(i) +
                             " differs from the served report");
    }
  }
  trace.spans = TakeSpans();
  const double ops = static_cast<double>(trace.ops);
  SetLayer(&layers, "trace.overhead_ops_per_s",
           ops / (traced_replay_ms / 1e3) - ops / (plain_ms / 1e3), trace.ops);

  HiddenStageTimes hidden;
  for (size_t i = 0; i < std::min(kHiddenJobs, replayed); ++i) {
    const JobSpec& spec = specs[i];
    Result<const Dataset*> data = resolver.Resolve(spec);
    if (!data.ok()) continue;
    Result<Supervision> supervision = BuildJobSupervision(**data, spec);
    Result<std::unique_ptr<SemiSupervisedClusterer>> clusterer =
        MakeClusterer(spec.clusterer);
    if (!supervision.ok() || !clusterer.ok()) continue;
    const Status status = ReplayHiddenStages(
        **data, *supervision, **clusterer, spec.param_grid, spec.n_folds,
        /*with_silhouette=*/false, engine_pool.For((*data)->points()),
        spec.cvcp_seed, &hidden);
    if (!status.ok()) result.notes.push_back(status.ToString());
  }
  GeometryTimes geometry;
  const std::vector<int> minpts = DefaultMinPtsGrid();
  for (size_t d = 0; d < std::min(kGeometryDatasets, fosc_datasets.size());
       ++d) {
    TimeGeometry(fosc_datasets[d]->points(), minpts, &geometry);
  }
  SetEngineLayerMetrics(trace, counters, hidden, geometry, &layers);

  // RunJob on a warm cache (the replay pool holds every job's geometry).
  std::vector<double> run_ms;
  for (size_t i = 0; i < std::min(kSampleJobs, replayed); ++i) {
    Result<const Dataset*> data = resolver.Resolve(specs[i]);
    if (!data.ok()) continue;
    JobContext context;
    context.cache = replay_pool.For((*data)->points());
    context.exec.threads = options.threads;
    const double start = NowMs();
    Result<CvcpReport> report = RunJob(**data, specs[i], context);
    run_ms.push_back(NowMs() - start);
    if (!report.ok()) result.notes.push_back(report.status().ToString());
  }
  SetLayer(&layers, "job.run_ms_p50", Percentile(run_ms, 50), run_ms.size());

  // ResultStore::Put of the run's records into a scratch store on the same
  // filesystem as the served results.
  const std::string put_dir = options.run_dir + "/put-store";
  std::filesystem::remove_all(put_dir);
  std::vector<double> put_ms;
  {
    ResultStore store(put_dir);
    if (store.Recover().ok()) {
      for (size_t i = 0; i < std::min(kSampleJobs, traced_run.end); ++i) {
        if (traced.reports[i].empty()) continue;
        StoredResult record;
        record.job_id = store.AllocateJobId();
        record.spec_hash = JobSpecHash(specs[i]);
        record.version = store.AllocateVersion(record.spec_hash);
        record.spec_bytes = EncodeJobSpec(specs[i]);
        record.report_bytes = traced.reports[i];
        const double start = NowMs();
        const Status put = store.Put(record);
        put_ms.push_back(NowMs() - start);
        if (!put.ok()) result.notes.push_back(put.ToString());
      }
    }
  }
  std::filesystem::remove_all(put_dir);
  SetLayer(&layers, "result_store.put_ms_p50", Percentile(put_ms, 50),
           put_ms.size());
  FillUnsetLayers(&layers);

  const std::string trace_path = options.run_dir + "/trace.json";
  if (!WriteChromeTrace(trace.spans, trace_path)) {
    result.notes.push_back("could not write " + trace_path);
  }
  result.notes.push_back(
      "traced served pass: " + std::to_string(traced_run.end) +
      " jobs; traced replay: " + std::to_string(trace.ops) + " jobs, " +
      std::to_string(trace.spans.size()) + " spans");
  result.metrics = std::move(layers);
  return result;
}

}  // namespace perfbench
