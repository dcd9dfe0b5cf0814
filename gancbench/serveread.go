package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ganc"
	"ganc/internal/serve"
)

// serveReadLadder is sized from the single node's closed-loop capacity on a
// 2-vCPU machine (about 11k req/s with 2 workers): the nominal rung sits near
// a fifth of it and the top rung near half.
var serveReadLadder = ladder{
	rates:    [3]float64{1000, 2500, 5000},
	weights:  [numRoutes]int{routeRead: 92, routeBatch: 8},
	warmup:   12000,
	capacity: 8000,
}

// servePipeline assembles GANC(Pop, θ^T, Dyn), the engine of both serving
// workloads.
func servePipeline(u *ganc.Universe) (*ganc.Pipeline, error) {
	return ganc.NewPipeline(u.Train(),
		ganc.WithBaseNamed("Pop"),
		ganc.WithPreferences(ganc.PreferenceTFIDF),
		ganc.WithTopN(topN))
}

// serveMixedLadder puts the serve-read node under the cluster-mixed traffic
// mix: every /ingest batch rebuilds the node's engine and starts a new cache
// generation.
var serveMixedLadder = ladder{
	rates:    [3]float64{100, 250, 400},
	weights:  [numRoutes]int{routeRead: 90, routeBatch: 8, routeIngest: 2},
	warmup:   4000,
	capacity: 2000,
}

// singleNode is one pipeline served over loopback.
type singleNode struct {
	pipe *ganc.Pipeline
	ing  *ganc.Ingestor // nil without ingestion
	base string
	stop func()
}

func bootSingleNode(ctx context.Context, client *http.Client, u *ganc.Universe, t *tracer, ingest bool) (*singleNode, error) {
	p, err := servePipeline(u)
	if err != nil {
		return nil, err
	}
	var eng ganc.Engine = p
	if t != nil {
		eng = tracedEngine{Engine: p, t: t}
	}
	srv, err := ganc.NewServer(u.Train(), eng, topN,
		ganc.WithServerCacheCapacity(nodeCache),
		ganc.WithMetrics(ganc.NewMetricsRegistry()))
	if err != nil {
		return nil, err
	}
	var ing *ganc.Ingestor
	if ingest {
		if ing, err = ganc.NewIngestor(srv, p); err != nil {
			return nil, err
		}
	}
	base, stop, err := listen(traceHandler(t, "serve", srv.Handler()))
	if err != nil {
		return nil, err
	}
	var health serve.HealthResponse
	if err := getJSON(ctx, client, base, "/health", &health); err != nil {
		stop()
		return nil, err
	}
	return &singleNode{pipe: p, ing: ing, base: base, stop: stop}, nil
}

func runServeRead(ctx context.Context, o options) (*result, error) {
	return runSingleNode(ctx, o, serveReadLadder, false)
}

func runServeMixed(ctx context.Context, o options) (*result, error) {
	return runSingleNode(ctx, o, serveMixedLadder, true)
}

func runSingleNode(ctx context.Context, o options, l ladder, ingest bool) (*result, error) {
	res := newResult()
	ucfg := standardUniverse(o.seed)
	res.params = map[string]any{
		"universe": ucfg, "engine": "GANC(Pop, θ^T, Dyn)", "node_cache": nodeCache,
		"mix_read_batch_ingest": l.weights, "batch_users": batchUsers, "request_zipf": requestZipf,
		"ladder_rps": l.rates, "nominal_rps": l.rates[nominal],
		"warmup_requests": l.warmup, "capacity_round_requests": l.capacity,
		"workers": workers, "read_p99_limit_ms": readLimitMs,
	}
	u, err := ganc.NewUniverse(ucfg)
	if err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()

	var node *singleNode
	setups := make([]float64, setupRepeats)
	for k := range setups {
		if node != nil {
			node.stop()
		}
		t0 := time.Now()
		if node, err = bootSingleNode(ctx, client, u, o.t, ingest); err != nil {
			return nil, fmt.Errorf("setup %d: %w", k, err)
		}
		setups[k] = time.Since(t0).Seconds()
	}
	defer node.stop()
	client.CloseIdleConnections()

	d := &driver{client: client, base: node.base, t: o.t, gen: newTrafficGen(u, o.seed+100)}
	warm, _ := d.closedLoop(ctx, rand.New(rand.NewSource(o.seed+200)), l.warmup, l.weights)
	res.count("warmup", warm)
	d.kept[routeRead], d.kept[routeBatch] = nil, nil

	bases := []string{node.base}
	before, err := scrapeAll(ctx, client, bases)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	mark := len(o.t.snapshot())
	run := d.measure(ctx, l, o.window, o.seed+300)
	rt1 := readRuntime()
	after, err := scrapeAll(ctx, client, bases)
	if err != nil {
		return nil, err
	}
	spans := o.t.snapshot()[mark:]

	sent := servingResults(res, l, run, setups)
	servingLayers(res, before, after, rt0, rt1, sent, spans)

	if ingest {
		// Lists change under ingest: kept reads must be well formed, and every
		// acknowledged event must have been applied exactly once.
		for _, a := range d.kept[routeRead] {
			r, err := decodeRead(a)
			if err == nil && len(r.Items) != topN {
				err = fmt.Errorf("user %s: %d items, want %d", a.p.user, len(r.Items), topN)
			}
			if err != nil {
				res.mismatch(err)
			}
		}
		acked := 0
		for _, a := range d.kept[routeIngest] {
			var ir serve.IngestResult
			if err := json.Unmarshal(a.body, &ir); err != nil || ir.Applied != a.p.n {
				res.mismatch(fmt.Errorf("/ingest acknowledged %d of %d events: %v", ir.Applied, a.p.n, err))
			}
			acked += ir.Applied
		}
		if swaps := res.layer["serve.swaps"].Value; swaps > 0 {
			measured := res.traffic["measure"][routeNames[routeIngest]].Succeeded * ingestEvents
			res.layer["ingest.events_per_swap"] = metric{float64(measured) / swaps, "events"}
		}
		if seq := node.ing.Seq(); seq != uint64(acked) {
			res.mismatch(fmt.Errorf("server acknowledged %d events, applied %d", acked, seq))
		}
		res.extra["acked_events"] = acked
		return res, nil
	}
	res.extra["lists_checked"], _ = checkLists(ctx, res, d, node.pipe, u.Train())
	return res, nil
}

// servingResults derives the end-to-end and named metrics of a serving
// workload from its ladder run, and returns how many requests it sent.
func servingResults(res *result, l ladder, run ladderRun, setups []float64) int {
	nom := run.rungs[nominal]
	for _, r := range run.rungs {
		for _, seg := range r.segs {
			res.count("measure", seg)
		}
	}
	res.count("capacity", run.capOuts)
	reads, batches, ingests := nom.lat[routeRead], nom.lat[routeBatch], nom.lat[routeIngest]
	rate := maxPassingRate(run.rungs)
	res.endToEnd["setup_s"] = metric{median(setups), "s"}
	res.endToEnd["rate_per_s"] = metric{run.capacity, "1/s"}
	res.endToEnd["p50_ms"] = metric{median(reads), "ms"}
	res.endToEnd["p95_ms"] = metric{windowedQuantile(nom.segs, routeRead, 0.95), "ms"}
	res.endToEnd["batch_p50_ms"] = metric{median(batches), "ms"}

	res.named["setup_s"] = metric{median(setups), "s"}
	res.named["max_rate_rps"] = metric{rate, "req/s"}
	res.named["closed_loop_rps"] = metric{run.capacity, "req/s"}
	res.named["read_p50_ms"] = metric{median(reads), "ms"}
	res.named["read_p95_ms"] = metric{percentile(reads, 0.95), "ms"}
	res.named["read_p99_ms"] = metric{percentile(reads, 0.99), "ms"}
	res.named["batch_p50_ms"] = metric{median(batches), "ms"}
	res.named["batch_p99_ms"] = metric{percentile(batches, 0.99), "ms"}
	if len(ingests) > 0 {
		res.named["ingest_p50_ms"] = metric{median(ingests), "ms"}
		res.named["ingest_p95_ms"] = metric{percentile(ingests, 0.95), "ms"}
	}
	res.extra["rungs"] = run.rungs
	res.extra["nominal_samples"] = map[string]int{"read": len(reads), "batch": len(batches), "ingest": len(ingests)}
	res.extra["nominal_supported"] = map[string]bool{
		"read_p99": supports(len(reads), 0.99), "batch_p99": supports(len(batches), 0.99),
		"ingest_p95": supports(len(ingests), 0.95),
	}
	res.layer["bench.lag_p99_ms"] = metric{percentile(nom.lags, 0.99), "ms"}
	sent := 0
	for _, phase := range []string{"measure", "capacity"} {
		for _, c := range res.traffic[phase] {
			sent += c.Sent
		}
	}
	return sent
}

// servingLayers derives the per-layer metrics a serving workload shares:
// cache, engine and swap counters from /metrics deltas, Go runtime costs per
// request, and handler and loopback times from the trace.
func servingLayers(res *result, before, after scrapes, rt0, rt1 runtimeReading, sent int, spans []span) {
	hits := delta(before, after, "ganc_cache_hits_total")
	misses := delta(before, after, "ganc_cache_misses_total")
	coalesced := delta(before, after, "ganc_cache_coalesced_total")
	lookups := hits + misses + coalesced
	res.layer["serve.hits"] = metric{hits, "count"}
	res.layer["serve.misses"] = metric{misses, "count"}
	res.layer["serve.coalesced"] = metric{coalesced, "count"}
	res.layer["serve.lookups"] = metric{lookups, "count"}
	if lookups > 0 {
		res.layer["serve.hit_ratio"] = metric{hits / lookups, "ratio"}
	}
	res.layer["serve.swaps"] = metric{delta(before, after, "ganc_engine_swaps_total"), "count"}
	calls := delta(before, after, "ganc_engine_compute_seconds_count")
	res.layer["core.compute_calls"] = metric{calls, "count"}
	if calls > 0 {
		res.layer["core.compute_mean_us"] = metric{delta(before, after, "ganc_engine_compute_seconds_sum") / calls * 1e6, "us"}
	}
	if sent > 0 {
		res.layer["goruntime.allocs_per_req"] = metric{(rt1.allocs - rt0.allocs) / float64(sent), "count"}
		res.layer["goruntime.bytes_per_req"] = metric{(rt1.bytes - rt0.bytes) / float64(sent), "B"}
	}
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		res.layer["goruntime.gc_cpu_fraction"] = metric{(rt1.gcCPU - rt0.gcCPU) / cpu, "ratio"}
	}

	durs := map[string][]float64{}
	byReq := map[uint64]map[string]time.Duration{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]time.Duration{}
		}
		byReq[s.Req][s.Name] = s.dur()
	}
	res.layer["serve.recommend_handler_p50_ms"] = metric{median(durs["serve:/recommend"]), "ms"}
	res.layer["serve.recommend_handler_p99_ms"] = metric{percentile(durs["serve:/recommend"], 0.99), "ms"}
	res.layer["serve.batch_handler_p99_ms"] = metric{percentile(durs["serve:/recommend/batch"], 0.99), "ms"}
	res.layer["cluster.router_recommend_p99_ms"] = metric{percentile(durs["cluster:/recommend"], 0.99), "ms"}
	res.layer["ingest.handler_p50_ms"] = metric{median(durs["serve:/ingest"]), "ms"}
	res.layer["ingest.handler_p95_ms"] = metric{percentile(durs["serve:/ingest"], 0.95), "ms"}
	var loopback []float64
	for _, names := range byReq {
		client, ok := names["client:read"]
		if !ok {
			continue
		}
		for _, h := range []string{"serve:/recommend", "cluster:/recommend"} {
			if hd, ok := names[h]; ok {
				loopback = append(loopback, ms(client-hd))
			}
		}
	}
	res.layer["serve.loopback_p50_ms"] = metric{median(loopback), "ms"}
	selfShares(res, spans)
}
