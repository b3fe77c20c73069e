/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line arguments,
 * the metric/correctness report, exact quantiles, golden values, the
 * in-memory span tracer and the traced campaign replay.
 *
 * Every workload runs in one of two modes. Untraced (--trace 0) it
 * measures the end-to-end metrics through the library's public API
 * with nothing in the way. Traced (--trace 1) it replays the same
 * inputs with a span around each call into a layer and derives the
 * per-layer metrics from those spans; the difference between the two
 * is reported as tracing overhead.
 */

#ifndef CYCLONE_PERFBENCH_BENCH_H
#define CYCLONE_PERFBENCH_BENCH_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cyclone.h"

namespace perfbench {

/** The seed whose outputs are pinned in golden.txt. */
constexpr uint64_t kDefaultSeed = 1;

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory inside the checkout (spools, trace files). */
    std::string outDir = ".bench_build/out";
    /** Golden values file (perfbench/golden.txt). */
    std::string golden = "perfbench/golden.txt";
    /** Print golden lines for the current outputs instead of
     *  comparing (used to regenerate golden.txt). */
    bool emitGolden = false;
};

double nowSeconds();

/** Quantile q in [0, 1] of raw samples (linear interpolation between
 *  order statistics; 0 for an empty set). */
double quantile(std::vector<double> samples, double q);

double median(const std::vector<double>& samples);

/** Peak resident set of this process and of its largest waited-for
 *  child, MB (getrusage). */
double peakRssMb();

/**
 * Metrics, informational lines and correctness checks of one run.
 * JSON metrics go into the final result line; info lines are printed
 * only. finish() prints both and returns the exit code. The JSON line
 * carries exactly the end-to-end metrics (untraced) or exactly the
 * per-layer metrics (traced) of the tables in report.cc; a per-layer
 * metric of a layer the workload never calls reads 0.
 */
class Report
{
  public:
    explicit Report(const Args& args);

    /** A metric of the final JSON line (also printed). */
    void metric(const std::string& name, double value,
                const std::string& unit);
    /** A printed-only measurement (named per-workload metrics,
     *  breakdowns). */
    void info(const std::string& name, double value,
              const std::string& unit);
    /** Record a correctness check; a failed check fails the run. */
    void check(bool ok, const std::string& what);
    /** Compare `value` with golden key `key` (exact); only enforced at
     *  the default seed when `seedDependent`. */
    void golden(const std::string& key, double value,
                bool seedDependent);

    void attempted(size_t n) { attempted_ += n; }
    void failed(size_t n) { failed_ += n; }

    /** Print everything, the JSON line last; 0 when every check held. */
    int finish();

  private:
    struct Line
    {
        std::string name;
        double value;
        std::string unit;
        bool json;
    };

    const Args& args_;
    std::vector<Line> lines_;
    std::map<std::string, std::string> goldenValues_;
    std::vector<std::string> goldenOut_;
    size_t checksFailed_ = 0;
    size_t attempted_ = 0;
    size_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/**
 * In-memory span recorder (single thread). Spans nest: a span opened
 * while another is open becomes its child. A layer's self time is the
 * summed duration of its spans minus the parts their child spans
 * cover.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        double childSeconds = 0.0;
    };

    /** RAII span; a null tracer records nothing. */
    class Scope
    {
      public:
        Scope(Tracer* tracer, const char* name, const char* layer);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_;
        int id_ = -1;
    };

    int open(const char* name, const char* layer);
    void close(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Self seconds per layer. */
    std::map<std::string, double> selfByLayer() const;
    /** Total (inclusive) seconds per span name. */
    std::map<std::string, double> totalByName() const;

    /** Write Chrome trace-event JSON ("X" events, microseconds). */
    bool writeChromeTrace(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    double origin_ = 0.0;
};

// ---------------------------------------------------------------------
// Traced campaign replay (ler_sweep, spool_campaign)
// ---------------------------------------------------------------------

/** BP/OSD split of distinct syndromes, re-decoded from outside. */
struct DecodeSplit
{
    double bpSeconds = 0.0;
    double osdSeconds = 0.0;
    /** Σ laneIterations over filled lanes. */
    uint64_t usefulLaneIters = 0;
    /** Σ lane width x the wave's iteration count. */
    uint64_t paidLaneIters = 0;
    size_t osdSolves = 0;
    size_t osdGroups = 0;

    void add(const DecodeSplit& other);
};

/**
 * Re-decodes staged groups' distinct non-trivial syndromes through
 * BpWaveDecoder::decodeWave (weight-sorted L-lane waves, as the
 * production pipeline forms them) and OsdDecoder::solveBatch (64-shot
 * slabs of non-converged lanes), timing the two kernels apart.
 */
class DecodeSplitter
{
  public:
    DecodeSplitter(const cyclone::DetectorErrorModel& dem,
                   const cyclone::BpOptions& bp);

    /** Split-decode the distinct non-zero syndromes of `syndromes`
     *  (duplicates are decoded once, like the decoder's memo). */
    void run(const std::vector<cyclone::BitVec>& syndromes,
             DecodeSplit& out);

  private:
    void flushOsd(DecodeSplit& out);

    static constexpr size_t kOsdSlab = 64;

    const cyclone::DetectorErrorModel& dem_;
    /** Null when no wave backend runs on this host (nothing to split). */
    std::unique_ptr<cyclone::BpWaveDecoder> wave_;
    cyclone::OsdDecoder osd_;
    std::vector<const cyclone::BitVec*> distinct_;
    std::vector<const cyclone::BitVec*> pendingSyndromes_;
    std::vector<float> pendingPosteriors_;
    std::vector<float> posterior_;
    std::vector<cyclone::OsdShotRequest> requests_;
    cyclone::OsdBatchResult result_;
};

/** Per-regime decoder accounting of a traced replay. */
struct RegimeStats
{
    cyclone::BpOsdStats decoder;
    DecodeSplit split;
    /** Seconds inside beginStaged/stageBatch/flushStaged. */
    double decodeSeconds = 0.0;
    size_t shots = 0;
};

/** Outcome of replaying a campaign spec with spans. */
struct ReplayResult
{
    std::vector<size_t> failures;
    std::vector<size_t> shots;
    /** Keyed by p regime label ("p1e-3", ...). */
    std::map<std::string, RegimeStats> regimes;
    double sampleSeconds = 0.0;
    size_t sampledShots = 0;
    /** Seconds of the staged chunk groups (sample + decode). */
    double groupSeconds = 0.0;
    cyclone::CacheStats cache;
    std::map<std::string, double> compileMsByArch;
    std::map<std::string, double> opsByArch;
    size_t mechanisms = 0;
};

/** Label of a physical error rate's regime, e.g. "p1e-3". */
std::string regimeLabel(double p);

/**
 * Build a task's compile result and DEM the way buildTaskArtifacts
 * does (uniform latency-scaled noise), with spans around
 * compileCodesign, build{Z,X}MemoryCircuit and buildDetectorErrorModel.
 * Records per-architecture compile time and schedule op counts.
 */
void buildTracedArtifacts(cyclone::ResolvedTask& task,
                          cyclone::ArtifactCache& cache, Tracer* tracer,
                          ReplayResult& out);

/**
 * Replay every task of `spec` single-threaded: the AdaptiveSampler's
 * own chunk plans and chunk seeds, staged groups of stagingChunks
 * chunks through beginStaged/stageBatch/flushStaged. With a tracer,
 * spans wrap every call and each group's distinct syndromes also get
 * the BP/OSD split (outside the group spans); without one, the same
 * replay runs bare, as the base of the tracing overhead.
 */
ReplayResult replayCampaign(const cyclone::CampaignSpec& spec,
                            Tracer* tracer);

/** Report the decoder/dem/compiler per-layer metrics of a replay
 *  (per p regime as info lines, totals as JSON metrics). */
void reportReplayLayers(Report& report, const ReplayResult& replay);

/** Report the decoder JSON metrics of summed decoder accounting. */
void reportDecoderTotals(Report& report, const RegimeStats& all);

/** Report compile/DEM counts and artifact-cache activity. */
void reportBuildLayers(Report& report, const ReplayResult& replay);

/** Add one decoder's statistics into a running total. */
void addDecoderStats(cyclone::BpOsdStats& into,
                     const cyclone::BpOsdStats& stats);

/** Report per-layer self times and their shares of the traced time
 *  (spans of layer "analysis" are the benchmark's own and excluded). */
void reportLayerShares(Report& report, const Tracer& tracer);

// Campaign helpers (ler_sweep.cc) -------------------------------------

/** Spec text of ler_sweep's campaign; with `spoolSubset`, just its
 *  first [task] block (same task indices, so the same task seeds). */
std::string lerSpecText(uint64_t seed, bool spoolSubset);

/** Resolve and build every task's artifacts into a fresh cache,
 *  repeatedly; returns the median seconds and keeps the last set. */
double setUpArtifacts(const cyclone::CampaignSpec& spec,
                      std::vector<cyclone::ResolvedTask>& tasks,
                      std::unique_ptr<cyclone::ArtifactCache>& cache);

/** Golden makespan and DEM size of every built task. */
void checkTaskArtifacts(Report& report, const std::string& workload,
                        const std::vector<cyclone::ResolvedTask>& tasks);

/** latency_p50_ms / latency_p95_ms plus their sample counts. */
void reportLatencies(Report& report, const std::vector<double>& latenciesMs,
                     const std::string& what);

/** Check no task errored and per-task failures equal `expect`. */
bool checkCampaignResult(Report& report,
                         const cyclone::CampaignResult& result,
                         const std::vector<size_t>& expect,
                         const std::string& what);

std::vector<size_t> taskFailures(const cyclone::CampaignResult& result);
size_t erroredTasks(const cyclone::CampaignResult& result);

/**
 * Replay `spec` bare and then traced, check both replays' per-task
 * failures and shots equal `reference`, report the traced replay's
 * per-layer metrics and the tracing overhead (traced over bare
 * chunk-group seconds), and write the Chrome trace.
 */
void replayAgainst(Report& report, const Args& args,
                   const cyclone::CampaignSpec& spec,
                   const cyclone::CampaignResult& reference, Tracer& tracer);

// Workloads -----------------------------------------------------------

int runLerSweep(const Args& args);
int runDesignSweep(const Args& args);
int runStreamServe(const Args& args);
int runSpoolCampaign(const Args& args);

} // namespace perfbench

#endif // CYCLONE_PERFBENCH_BENCH_H
