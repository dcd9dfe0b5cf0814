// Command gancbench is the repository's benchmark. It prices the GANC system
// end to end and layer by layer on four seeded workloads, from one process
// whose load generator uses at most two goroutines and two connections (the
// CPU count of the 2-vCPU machine it is sized for). The program under test
// receives only generated inputs; every input comes from --seed.
//
// Workloads, and why each was chosen:
//
//   - offline-sweep: the paper's protocol. A synthetic 20 000 users × 2 000
//     items set of about 400k ratings, split 80/20 by user, served by
//     GANC(RSVD, θ^G, Dyn) at library defaults (f64, one worker). RSVD is
//     trained in setup; each round (at least two) runs longtail.Estimate →
//     NewPipeline → one cold RecommendAll. Throughout the rounds a second
//     goroutine times bursts of 10 single-user RecommendUser calls every
//     50 ms on a pipeline of the same model. Math (core, recommender,
//     linalg, longtail) does the work; serve, ingest and cluster are idle,
//     so a serving change predicts no change here. At 100k × 10k the per-user frequency
//     snapshots of a cold RecommendAll do not fit in 8 GB of memory.
//   - serve-read: GANC(Pop, θ^T, Dyn) on the 100k users × 10k items × 1M
//     ratings universe (Zipf 1.1, request Zipf 1.0) behind one server over
//     loopback, node cache 8192, /metrics mounted, 92 GET /recommend to 8
//     POST /recommend/batch of 20, no /ingest. It prices the cache, JSON and
//     HTTP path with the miss path beside it; linalg, ingest and cluster are
//     idle.
//   - serve-mixed: the serve-read node with streaming ingestion under the
//     90 / 8 / 2 mix, /ingest batches of 20 events. Every ingest rebuilds the
//     engine and starts a new cache generation, so a cache gain on serve-read
//     that collapses under invalidation shows here, and ingest is priced.
//   - cluster-read: the same universe and engine behind NewCluster with 2
//     shards × 1 replica, WithWriteQuorum(1) and node cache 8192, under
//     serve-read's mix: the router, scatter-gather and replica-backed shards.
//     After the measured phases, 50 routed /ingest batches run the write
//     path (WAL, replication shipping, the quorum wait) for the per-layer
//     metrics and the exactly-once and replica checks. The same mix with
//     writes (cluster-mixed) is not a workload: with every ingest rebuilding
//     four engines in one shared heap, its read tail ranged 7–23 ms (p95)
//     and its closed-loop rate 916–1551 req/s across seeds, wider than any
//     bound a regression gate could use.
//
// Serving traffic is open loop: seeded Poisson arrivals at three offered
// rates (low, nominal, high), each request timed from when it was due, and
// the generator's lag recorded. The measured window runs as five equal
// segments — nominal, low, nominal, high, nominal — each followed by one
// closed-loop round of the mix, so a few seconds of outside disturbance
// cannot own a metric. Latencies are read at the nominal rate. max_rate_rps
// in the report is the achieved rate of the highest rung whose read p99 is
// within 10 ms with no failure and no growing lag; the gated rate is the
// median closed-loop round, which repeats from run to run where a rung's
// pass or fail does not.
//
// Usage, from the root of the repository:
//
//	bash gancbench/run.sh --workload serve-read --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with correct,
// attempted, failed and metrics; the line before it is the report: the env
// block (GOMAXPROCS, nproc, CPU model, Go version, commit, seed and workload
// parameters), the workload's metrics under their own names (read_p50_ms,
// read_p99_ms, batch_p99_ms, ingest_p50_ms, ingest_p95_ms, max_rate_rps,
// error_rate, f_at_10, lt_accuracy_at_10, coverage_at_10, gini_at_10, ...),
// sent / succeeded / failed per phase and route, the ladder's rungs and every
// failed check. A failed output check makes correct false and the exit code 1.
//
// Output checks: offline-sweep's quality stays inside recorded bands, rounds
// repeat the same collection, and 200 users' RecommendUser lists equal
// GANC().ReferenceRecommendUser. serve-read's and cluster-read's kept answers
// equal the in-process pipeline's lists. serve-mixed's and cluster-read's
// acknowledged events equal the applied cursors (each event applied once);
// after WaitForReplicaSync, 200 users read identically through the router,
// the owning primary and its replica.
//
// End-to-end metrics (--trace 0) carry the same names on every workload:
//
//	setup_s       generated inputs → first servable request, median of 3:
//	              RSVD training (offline-sweep); pipeline and server boot;
//	              pipeline, snapshots and cluster boot (cluster-read)
//	rate_per_s    users / median round (offline-sweep); median closed-loop
//	              round rate of the mix (serving workloads)
//	p50_ms        single-user request median: in-process RecommendUser
//	              (offline-sweep); GET /recommend at the nominal rate
//	p95_ms        single-user request p95, the same requests; serving
//	              workloads take the median of the p95s of 200-read windows.
//	              p95, not p99: a shared 2-vCPU VM stalls the process for
//	              milliseconds a few times a run, which moved the nominal
//	              read p99 by up to 2x between runs (p99 is in the report)
//	batch_p50_ms  the batch call's median: one cold RecommendAll
//	              (offline-sweep); POST /recommend/batch of 20 (serving)
//	peak_heap_mb  peak heap footprint: heap memory held from the OS, sampled
//	              every 5 ms; every offline round, serving segment and
//	              closed-loop round starts from a collected heap
//
// Per-layer metrics (--trace 1), with the end-to-end metric and workload
// each should move; layers a workload leaves idle read 0:
//
//	mf.train_s                         → setup_s, offline-sweep
//	longtail.estimate_s                → rate_per_s, offline-sweep
//	core.new_pipeline_s                → rate_per_s, offline-sweep
//	core.recommend_all_s               → rate_per_s, batch_p50_ms, offline-sweep
//	core.compute_calls, compute_mean_us → p95_ms, serve-read
//	recommender.base_recommend_all_s   → rate_per_s, offline-sweep (core minus
//	                                     it is the GANC re-rank self time)
//	linalg.dots_per_user, bytes_per_user → rate_per_s, offline-sweep (computed
//	                                     from candidates × factors, not measured)
//	serve.recommend_handler_p50/p99_ms → p50_ms / p95_ms, serve-read
//	serve.batch_handler_p99_ms         → batch_p50_ms, serve-read
//	serve.loopback_p50_ms              → p50_ms, serve-read
//	serve.hits, misses, coalesced, lookups, hit_ratio
//	                                   → p50_ms, serve-read and serve-mixed
//	serve.swaps                        → p95_ms, serve-mixed
//	ingest.events_per_swap             → p95_ms, serve-mixed (group commit
//	                                     would raise it)
//	ingest.handler_p50_ms, handler_p95_ms → p95_ms, serve-mixed
//	ingest.router_p50_ms, router_p95_ms → routed writes, cluster-read
//	cluster.router_recommend_p99_ms    → p95_ms, cluster-read
//	cluster.router_overhead_p50_ms     → p50_ms, cluster-read (routed minus
//	                                     direct on the same cache hits)
//	cluster.fanout_per_batch           → batch_p50_ms, cluster-read
//	cluster.retries, shard_failures, failovers → failed, cluster-read
//	cluster.replica_lag_max_events     → routed writes, cluster-read
//	goruntime.allocs_per_req, bytes_per_req, gc_cpu_fraction → p95_ms, serve-read
//	selftime.<layer>_share             → the layer's share of traced self time
//	bench.lag_p99_ms, bench.<phase>.<route>.sent/succeeded/failed,
//	bench.tracing_overhead_p50         qualify every latency above
//
// Spans of a traced run (name, start, end, parent, request ID; the request
// ID travels in X-Request-ID so server-side wrapper spans join the client's)
// are written to .bench_build/gancbench/trace-<workload>-<seed>.json. The
// tracing overhead compares the traced run's end-to-end metrics with the last
// untraced run of the workload in the same checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times each workload sets up; setup_s is the median.
const setupRepeats = 3

// workDir holds what a run writes: cluster directories, traces and the last
// untraced result of each workload. It is relative to the checkout root.
const workDir = ".bench_build/gancbench"

// deadline bounds a run so it ends, with an error, before an outside
// three-minute limit would kill it.
const deadline = 170 * time.Second

// options are what every workload runs with.
type options struct {
	seed    int64
	window  time.Duration // how long the measured phase lasts
	t       *tracer       // nil in untraced runs
	workDir string
}

var workloads = map[string]func(context.Context, options) (*result, error){
	"offline-sweep": runOffline,
	"serve-read":    runServeRead,
	"serve-mixed":   runServeMixed,
	"cluster-read":  runClusterRead,
}

// spec names one reported metric.
type spec struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports untraced.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics every workload reports traced.
var perLayer = func() []spec {
	out := []spec{
		{"mf.train_s", "s"},
		{"longtail.estimate_s", "s"},
		{"core.new_pipeline_s", "s"},
		{"core.recommend_all_s", "s"},
		{"core.compute_calls", "count"},
		{"core.compute_mean_us", "us"},
		{"recommender.base_recommend_all_s", "s"},
		{"linalg.dots_per_user", "dots_computed"},
		{"linalg.bytes_per_user", "B_computed"},
		{"serve.recommend_handler_p50_ms", "ms"},
		{"serve.recommend_handler_p99_ms", "ms"},
		{"serve.batch_handler_p99_ms", "ms"},
		{"serve.loopback_p50_ms", "ms"},
		{"serve.hits", "count"},
		{"serve.misses", "count"},
		{"serve.coalesced", "count"},
		{"serve.lookups", "count"},
		{"serve.hit_ratio", "ratio"},
		{"serve.swaps", "count"},
		{"ingest.events_per_swap", "events"},
		{"ingest.handler_p50_ms", "ms"},
		{"ingest.handler_p95_ms", "ms"},
		{"ingest.router_p50_ms", "ms"},
		{"ingest.router_p95_ms", "ms"},
		{"cluster.router_recommend_p99_ms", "ms"},
		{"cluster.router_overhead_p50_ms", "ms"},
		{"cluster.fanout_per_batch", "shards"},
		{"cluster.retries", "count"},
		{"cluster.shard_failures", "count"},
		{"cluster.failovers", "count"},
		{"cluster.replica_lag_max_events", "events"},
		{"goruntime.allocs_per_req", "count"},
		{"goruntime.bytes_per_req", "B"},
		{"goruntime.gc_cpu_fraction", "ratio"},
		{"bench.lag_p99_ms", "ms"},
		{"bench.tracing_overhead_p50", "ratio"},
	}
	for _, layer := range traceLayers {
		out = append(out, spec{"selftime." + layer + "_share", "ratio"})
	}
	for _, phase := range []string{"warmup", "measure", "capacity", "write"} {
		for _, r := range trafficRoutes {
			for _, c := range []string{"sent", "succeeded", "failed"} {
				out = append(out, spec{"bench." + phase + "." + r + "." + c, "count"})
			}
		}
	}
	return out
}()

// trafficRoutes are the operations the traffic table counts: the serving
// routes, offline rounds and offline single-user calls.
var trafficRoutes = []string{"read", "batch", "ingest", "round", "user"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gancbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "offline-sweep, serve-read, serve-mixed or cluster-read")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 12, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "gancbench: need --workload offline-sweep|serve-read|serve-mixed|cluster-read, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, workDir: workDir}
	if *trace == 1 {
		o.t = newTracer()
	}
	e := newEnv(*workload, *seed, *seconds, o.t != nil)

	heap := watchHeap()
	res, err := fn(ctx, o)
	peak := heap.peakMB()
	if err != nil {
		fmt.Fprintf(stderr, "gancbench: %s: %v\n", *workload, err)
		return 1
	}
	res.endToEnd["peak_heap_mb"] = metric{peak, "MB"}
	res.named["peak_heap_mb"] = metric{peak, "MB"}
	e.Params = res.params

	attempted, failed := 0, res.failed
	for phase, routes := range res.traffic {
		for name, c := range routes {
			attempted += c.Sent
			failed += c.Failed
			res.layer["bench."+phase+"."+name+".sent"] = metric{float64(c.Sent), "count"}
			res.layer["bench."+phase+"."+name+".succeeded"] = metric{float64(c.Succeeded), "count"}
			res.layer["bench."+phase+"."+name+".failed"] = metric{float64(c.Failed), "count"}
		}
	}
	res.named["error_rate"] = metric{float64(failed) / float64(max(attempted, 1)), "ratio"}

	report := map[string]any{
		"env":        e,
		"metrics":    res.named,
		"traffic":    res.traffic,
		"mismatches": firstN(res.mismatches, 20),
		"details":    res.extra,
	}
	last := filepath.Join(o.workDir, "untraced-"+*workload+".json")
	var chosen []spec
	if o.t == nil {
		chosen = endToEnd
		if err := writeJSON(last, res.endToEnd); err != nil {
			fmt.Fprintf(stderr, "gancbench: %v\n", err)
		}
	} else {
		chosen = perLayer
		report["traced_end_to_end"] = res.endToEnd
		report["tracing_overhead"] = tracingOverhead(last, res)
		path := filepath.Join(o.workDir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := o.t.write(path); err != nil {
			fmt.Fprintf(stderr, "gancbench: writing spans: %v\n", err)
		}
		report["trace_file"] = path
	}
	out := map[string]metric{}
	src := map[bool]map[string]metric{true: res.layer, false: res.endToEnd}[o.t != nil]
	for _, s := range chosen {
		out[s.name] = metric{src[s.name].Value, s.unit}
	}
	report["layers"] = res.layer

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		fmt.Fprintf(stderr, "gancbench: %v\n", err)
		return 1
	}
	correct := res.failed == 0
	if err := enc.Encode(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}); err != nil {
		return 1
	}
	for _, m := range firstN(res.mismatches, 20) {
		fmt.Fprintln(stderr, "gancbench: mismatch:", m)
	}
	if !correct {
		return 1
	}
	return 0
}

// tracingOverhead compares the traced run's end-to-end metrics with the last
// untraced run of the same workload in this checkout, as traced/untraced − 1.
// It records the p50 overhead as a per-layer metric.
func tracingOverhead(path string, res *result) map[string]float64 {
	var base map[string]metric
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &base)
	}
	if err != nil {
		return nil // no untraced run to compare with
	}
	out := map[string]float64{}
	for name, m := range res.endToEnd {
		if u, ok := base[name]; ok && u.Value != 0 {
			out[name] = m.Value/u.Value - 1
		}
	}
	res.layer["bench.tracing_overhead_p50"] = metric{out["p50_ms"], "ratio"}
	return out
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}
