package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ganc"
	"ganc/internal/cluster"
	"ganc/internal/serve"
)

// clusterReadLadder drives the cluster with serve-read's mix: routing,
// scatter-gather and the shards' caches. Its rates are sized from the
// cluster's closed-loop capacity with 2 workers on a 2-vCPU machine (about
// 7k req/s). Writes through the router are driven after the ladder, unmeasured
// end to end, to check replication and exactly-once application: under 2 %
// ingest the cluster's read tail is set by a few full engine rebuilds per run
// and does not repeat from run to run.
var clusterReadLadder = ladder{
	rates:    [3]float64{500, 1000, 2000},
	weights:  [numRoutes]int{routeRead: 92, routeBatch: 8},
	warmup:   8000,
	capacity: 3000,
}

const (
	clusterShards   = 2
	clusterReplicas = 1
	writeQuorum     = 1
	writeBatches    = 50  // routed /ingest batches of the write phase
	sampleUsers     = 200 // users read through router, primary and replica
)

// clusterDeploy is one cluster behind a loopback router listener.
type clusterDeploy struct {
	c    *ganc.Cluster
	pipe *ganc.Pipeline // the pipeline the cluster was split from
	base string
	dir  string
	stop func()
}

func (d *clusterDeploy) close() {
	d.stop()
	_ = d.c.Close()
	_ = os.RemoveAll(d.dir)
}

func (d *clusterDeploy) primaries() []string {
	out := make([]string, d.c.NumShards())
	for i := range out {
		out[i] = "http://" + d.c.ShardAddr(i)
	}
	return out
}

func (d *clusterDeploy) replicas() []string {
	out := make([]string, d.c.NumShards())
	for i := range out {
		out[i] = "http://" + d.c.ReplicaAddr(i, 0)
	}
	return out
}

func bootCluster(ctx context.Context, client *http.Client, u *ganc.Universe, dir string, t *tracer) (*clusterDeploy, error) {
	p, err := servePipeline(u)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := ganc.NewCluster(p,
		ganc.WithShards(clusterShards),
		ganc.WithReplicas(clusterReplicas),
		ganc.WithWriteQuorum(writeQuorum),
		ganc.WithShardCacheCapacity(nodeCache),
		ganc.WithClusterDir(dir),
		ganc.WithClusterMetrics(ganc.NewMetricsRegistry()))
	if err != nil {
		return nil, err
	}
	if err := c.WaitReady(30 * time.Second); err != nil {
		_ = c.Close()
		return nil, err
	}
	base, stop, err := listen(traceHandler(t, "cluster", c.Handler()))
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	d := &clusterDeploy{c: c, pipe: p, base: base, dir: dir, stop: stop}
	var health cluster.HealthResponse
	if err := getJSON(ctx, client, base, "/health", &health); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func runClusterRead(ctx context.Context, o options) (*result, error) {
	res := newResult()
	ucfg := standardUniverse(o.seed)
	l := clusterReadLadder
	res.params = map[string]any{
		"universe": ucfg, "engine": "GANC(Pop, θ^T, Dyn)", "shards": clusterShards, "replicas": clusterReplicas,
		"write_quorum": writeQuorum, "node_cache": nodeCache, "mix_read_batch_ingest": l.weights,
		"batch_users": batchUsers, "request_zipf": requestZipf, "ladder_rps": l.rates,
		"nominal_rps":     l.rates[nominal],
		"warmup_requests": l.warmup, "capacity_round_requests": l.capacity,
		"write_batches": writeBatches, "ingest_events": ingestEvents, "workers": workers,
		"read_p99_limit_ms": readLimitMs,
	}
	u, err := ganc.NewUniverse(ucfg)
	if err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()

	var dep *clusterDeploy
	setups := make([]float64, setupRepeats)
	for k := range setups {
		if dep != nil {
			dep.close()
		}
		t0 := time.Now()
		if dep, err = bootCluster(ctx, client, u, filepath.Join(o.workDir, "cluster"), o.t); err != nil {
			return nil, fmt.Errorf("setup %d: %w", k, err)
		}
		setups[k] = time.Since(t0).Seconds()
	}
	defer dep.close()
	client.CloseIdleConnections()

	d := &driver{client: client, base: dep.base, t: o.t, gen: newTrafficGen(u, o.seed+100)}
	warm, _ := d.closedLoop(ctx, rand.New(rand.NewSource(o.seed+200)), l.warmup, l.weights)
	res.count("warmup", warm)
	d.kept = [numRoutes][]answer{}

	nodes := append([]string{dep.base}, dep.primaries()...)
	before, err := scrapeAll(ctx, client, nodes)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	mark := len(o.t.snapshot())
	run := d.measure(ctx, l, o.window, o.seed+300)
	rt1 := readRuntime()
	after, err := scrapeAll(ctx, client, nodes)
	if err != nil {
		return nil, err
	}
	spans := o.t.snapshot()[mark:]

	sent := servingResults(res, l, run, setups)
	router, shards := scrapes{before[0]}, before[1:]
	routerAfter, shardsAfter := scrapes{after[0]}, after[1:]
	servingLayers(res, shards, shardsAfter, rt0, rt1, sent, spans)
	res.layer["cluster.retries"] = metric{delta(router, routerAfter, "ganc_router_retries_total"), "count"}
	res.layer["cluster.shard_failures"] = metric{delta(router, routerAfter, "ganc_router_shard_failures_total"), "count"}
	res.layer["cluster.failovers"] = metric{delta(router, routerAfter, "ganc_router_failovers_total"), "count"}

	// Nothing was written yet, so every kept answer equals the list of the
	// pipeline the cluster was split from.
	checked, fanout := checkLists(ctx, res, d, dep.pipe, u.Train())
	res.extra["lists_checked"] = checked
	res.layer["cluster.fanout_per_batch"] = metric{mean(fanout), "shards"}

	if err := writePhase(ctx, d, dep, u, o, res); err != nil {
		return nil, err
	}
	return res, nil
}

// writePhase sends routed /ingest batches back to back, prices the write path
// layer by layer, and checks the cluster's end state: every acknowledged event
// was applied exactly once and a user sample reads identically through the
// router, the owning primary and its replica.
func writePhase(ctx context.Context, d *driver, dep *clusterDeploy, u *ganc.Universe, o options, res *result) error {
	client := d.client
	prim := dep.primaries()
	before, err := scrapeAll(ctx, client, prim)
	if err != nil {
		return err
	}
	mark := len(o.t.snapshot())
	lagStop := watchReplicaLag(dep.c)
	outs, _ := d.closedLoop(ctx, rand.New(rand.NewSource(o.seed+700)), writeBatches, [numRoutes]int{routeIngest: 1})
	res.layer["cluster.replica_lag_max_events"] = metric{float64(lagStop()), "events"}
	res.count("write", outs)
	after, err := scrapeAll(ctx, client, prim)
	if err != nil {
		return err
	}
	var routed []float64
	for _, s := range o.t.snapshot()[mark:] {
		if s.Name == "cluster:/ingest" {
			routed = append(routed, ms(s.dur()))
		}
	}
	res.layer["ingest.router_p50_ms"] = metric{median(routed), "ms"}
	res.layer["ingest.router_p95_ms"] = metric{percentile(routed, 0.95), "ms"}

	acked := 0
	for _, a := range d.kept[routeIngest] {
		var ir cluster.IngestResponse
		if err := json.Unmarshal(a.body, &ir); err != nil || ir.Applied != a.p.n {
			res.mismatch(fmt.Errorf("routed /ingest acknowledged %d of %d events: %v", ir.Applied, a.p.n, err))
		}
		acked += ir.Applied
	}
	if swaps := delta(before, after, "ganc_engine_swaps_total"); swaps > 0 {
		res.layer["ingest.events_per_swap"] = metric{float64(acked) / swaps, "events"}
	}

	if err := dep.c.WaitForReplicaSync(20 * time.Second); err != nil {
		res.mismatch(fmt.Errorf("replicas did not catch up: %w", err))
		return nil
	}
	reps := dep.replicas()
	applied := uint64(0)
	for i := range prim {
		var ph, rh serve.HealthResponse
		if err := getJSON(ctx, client, prim[i], "/health", &ph); err != nil {
			return err
		}
		if err := getJSON(ctx, client, reps[i], "/health", &rh); err != nil {
			return err
		}
		if ph.Replication == nil || rh.Replication == nil {
			res.mismatch(fmt.Errorf("shard %d reports no replication status", i))
			continue
		}
		applied += ph.Replication.AppliedSeq
		if rh.Replication.AppliedSeq != ph.Replication.AppliedSeq {
			res.mismatch(fmt.Errorf("shard %d: replica applied %d events, primary %d",
				i, rh.Replication.AppliedSeq, ph.Replication.AppliedSeq))
		}
	}
	if applied != uint64(acked) {
		res.mismatch(fmt.Errorf("router acknowledged %d events, primaries applied %d", acked, applied))
	}
	res.extra["acked_events"] = acked
	res.extra["applied_events"] = applied

	rng := rand.New(rand.NewSource(o.seed + 400))
	train := u.Train()
	var overhead []float64
	for k := 0; k < sampleUsers; k++ {
		user := train.UserInterner().Key(int32(rng.Intn(train.NumUsers())))
		owner := dep.c.OwnerShard(user)
		routed, err := fetchItems(ctx, client, dep.base, user)
		if err != nil {
			res.mismatch(err)
			continue
		}
		// Both timed reads are cache hits on the owning primary, so their
		// difference is the router's own cost.
		t0 := time.Now()
		again, err1 := fetchItems(ctx, client, dep.base, user)
		t1 := time.Now()
		direct, err2 := fetchItems(ctx, client, prim[owner], user)
		t2 := time.Now()
		replica, err3 := fetchItems(ctx, client, reps[owner], user)
		if err1 != nil || err2 != nil || err3 != nil {
			res.mismatch(fmt.Errorf("user %s: %v / %v / %v", user, err1, err2, err3))
			continue
		}
		overhead = append(overhead, ms(t1.Sub(t0))-ms(t2.Sub(t1)))
		for _, e := range []error{
			sameItems(user, routed, again, "router", "router again"),
			sameItems(user, routed, direct, "router", "owning primary"),
			sameItems(user, direct, replica, "owning primary", "its replica"),
		} {
			if e != nil {
				res.mismatch(e)
			}
		}
	}
	res.extra["users_compared"] = sampleUsers
	res.layer["cluster.router_overhead_p50_ms"] = metric{median(overhead), "ms"}
	return nil
}

// watchReplicaLag samples every shard's widest replica lag until the returned
// stop function is called; stop returns the largest lag seen.
func watchReplicaLag(c *ganc.Cluster) (stop func() uint64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			for i := 0; i < c.NumShards(); i++ {
				peak = max(peak, c.ReplicaLag(i))
			}
			select {
			case <-tick.C:
			case <-done:
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}
