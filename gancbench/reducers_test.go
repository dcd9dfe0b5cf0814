package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ganc"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for k := range xs {
		xs[k] = float64(100 - k) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7, 3}, 0.5); got != 3 {
		t.Errorf("median of {7, 3} = %v, want the lower (nearest-rank) value 3", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{200, 0.95, true},  // rank 190, 10 beyond
		{199, 0.95, false}, // rank 190, 9 beyond
		{20, 0.5, true},    // rank 10, 10 beyond
		{0, 0.5, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	weights := [numRoutes]int{routeRead: 90, routeBatch: 8, routeIngest: 2}
	a := schedule(rand.New(rand.NewSource(3)), 1000, 2*time.Second, weights)
	b := schedule(rand.New(rand.NewSource(3)), 1000, 2*time.Second, weights)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("%d arrivals at 1000/s over 2s", len(a))
	}
	reads := 0
	for k, x := range a {
		if x.seq != k || x.due >= 2*time.Second || (k > 0 && x.due < a[k-1].due) {
			t.Fatalf("arrival %d out of order or range: %+v", k, x)
		}
		if x.route == routeRead {
			reads++
		}
	}
	if share := float64(reads) / float64(len(a)); share < 0.85 || share > 0.95 {
		t.Fatalf("read share %.2f, want about 0.90", share)
	}
}

// evenly returns n reads due every gap.
func evenly(n int, gap time.Duration) []arrival {
	out := make([]arrival, n)
	for k := range out {
		out[k] = arrival{due: time.Duration(k) * gap, seq: k}
	}
	return out
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// One worker, a 4 ms service behind arrivals 1 ms apart: each request
	// waits for the ones before it, and its latency must include that wait.
	const service = 4 * time.Millisecond
	outs := runOpenLoop(context.Background(), evenly(20, time.Millisecond), 1, func(context.Context, arrival) error {
		time.Sleep(service)
		return nil
	})
	for k, o := range outs {
		if o.sent < o.due {
			t.Fatalf("request %d sent %v before it was due at %v", k, o.sent, o.due)
		}
		if o.latency() < o.lag()+service {
			t.Fatalf("request %d: latency %v does not cover its lag %v plus service %v", k, o.latency(), o.lag(), service)
		}
	}
	// Request k cannot start before k services have finished.
	if last := outs[len(outs)-1]; last.lag() < 50*time.Millisecond {
		t.Fatalf("last request lag %v, want at least 50ms behind 19 services of %v", last.lag(), service)
	}
	if !lagGrowing(outs) {
		t.Fatal("an overloaded run was not reported as falling behind")
	}
}

func TestOpenLoopKeepsUp(t *testing.T) {
	outs := runOpenLoop(context.Background(), evenly(40, 2*time.Millisecond), 2, func(context.Context, arrival) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if lagGrowing(outs) {
		t.Fatalf("a run with ample capacity was reported as falling behind: lags %v", lagsMs(outs))
	}
	st := summarizeRung(500, [][]outcome{outs}, 10)
	if !st.Pass || st.Sent[routeRead] != 40 {
		t.Fatalf("rung summary %+v, want a pass over 40 reads", st)
	}
}

func TestOpenLoopCancelledArrivalsFail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs := runOpenLoop(ctx, evenly(5, time.Hour), 2, func(context.Context, arrival) error { return nil })
	st := summarizeRung(1, [][]outcome{outs}, 10)
	if st.Failed[routeRead] != 5 || st.Pass {
		t.Fatalf("cancelled run summary %+v, want 5 failures and no pass", st)
	}
}

func TestWindowedQuantileIgnoresOneBadWindow(t *testing.T) {
	// Three segments of 2 000 reads: p99 windows of 1 000 reads, two per
	// segment. One window stalls.
	var segs [][]outcome
	for s := 0; s < 3; s++ {
		var outs []outcome
		for k := 0; k < 2000; k++ {
			due := time.Duration(k) * time.Millisecond
			lat := time.Millisecond
			if s == 1 && k >= 1000 {
				lat = 100 * time.Millisecond
			}
			outs = append(outs, outcome{route: routeRead, due: due, sent: due, done: due + lat})
		}
		segs = append(segs, outs)
	}
	if got := windowedQuantile(segs, routeRead, 0.99); got != 1 {
		t.Fatalf("windowed p99 = %v ms, want 1", got)
	}
	if got := percentile(summarizeRung(1, segs, 10).lat[routeRead], 0.99); got != 100 {
		t.Fatalf("pooled p99 = %v ms, want 100", got)
	}
	// Too few reads for a window: the quantile of all of them.
	if got := windowedQuantile([][]outcome{segs[1][1990:]}, routeRead, 0.99); got != 100 {
		t.Fatalf("p99 of a short segment = %v ms, want 100", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client:read", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve:/recommend", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "serve:/recommend", Start: 20, End: 50},     // overlaps span 2
		{ID: 4, Parent: 1, Name: "core:recommend_user", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "core:recommend_user", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	res := newResult()
	selfShares(res, spans)
	total := 0.0
	for _, layer := range traceLayers {
		total += res.layer["selftime."+layer+"_share"].Value
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("layer shares sum to %v, want 1", total)
	}
	if got := res.layer["selftime.client_share"].Value; got != 50.0/130 {
		t.Fatalf("client share %v, want 50/130", got)
	}
}

func TestMetricsDeltas(t *testing.T) {
	parse := func(text string) *ganc.MetricsScrape {
		sc, err := ganc.ParseMetricsText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	before := scrapes{
		parse("# TYPE ganc_cache_hits_total counter\nganc_cache_hits_total 10\n" +
			"# TYPE ganc_engine_compute_seconds histogram\nganc_engine_compute_seconds_bucket{le=\"+Inf\"} 4\n" +
			"ganc_engine_compute_seconds_sum 0.004\nganc_engine_compute_seconds_count 4\n"),
		parse("# TYPE ganc_router_retries_total counter\nganc_router_retries_total{shard=\"0\"} 1\nganc_router_retries_total{shard=\"1\"} 2\n"),
	}
	after := scrapes{
		parse("# TYPE ganc_cache_hits_total counter\nganc_cache_hits_total 25\n" +
			"# TYPE ganc_engine_compute_seconds histogram\nganc_engine_compute_seconds_bucket{le=\"+Inf\"} 10\n" +
			"ganc_engine_compute_seconds_sum 0.010\nganc_engine_compute_seconds_count 10\n"),
		parse("# TYPE ganc_router_retries_total counter\nganc_router_retries_total{shard=\"0\"} 4\nganc_router_retries_total{shard=\"1\"} 2\n"),
	}
	for name, want := range map[string]float64{
		"ganc_cache_hits_total":             15,
		"ganc_router_retries_total":         3,
		"ganc_engine_compute_seconds_count": 6,
		"ganc_cache_misses_total":           0,
	} {
		if got := delta(before, after, name); got != want {
			t.Errorf("delta(%s) = %v, want %v", name, got, want)
		}
	}
	if got := delta(before, after, "ganc_engine_compute_seconds_sum"); got < 0.0059 || got > 0.0061 {
		t.Errorf("histogram sum delta %v, want 0.006", got)
	}
}

// wrongEngine answers every user with a fixed list.
type wrongEngine struct {
	ganc.Engine
	list ganc.TopNSet
}

func (e wrongEngine) RecommendUser(context.Context, ganc.UserID, int) (ganc.TopNSet, error) {
	return e.list, nil
}

func TestCheckServedCatchesAWrongList(t *testing.T) {
	u, err := ganc.NewUniverse(ganc.UniverseConfig{Users: 60, Items: 40, Ratings: 900, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := servePipeline(u)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	user := u.Train().UserInterner().Key(0)
	right, err := expectedItems(ctx, p, u.Train(), user, topN)
	if err != nil || len(right) < 2 {
		t.Fatalf("expected list %v, %v", right, err)
	}
	if err := checkServed(ctx, p, u.Train(), topN, user, right); err != nil {
		t.Fatalf("the engine's own list was rejected: %v", err)
	}
	set, _ := p.RecommendUser(ctx, 0, topN)
	wrong := wrongEngine{Engine: p, list: append(ganc.TopNSet{set[1], set[0]}, set[2:]...)}
	served, err := expectedItems(ctx, wrong, u.Train(), user, topN)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServed(ctx, p, u.Train(), topN, user, served); err == nil {
		t.Fatal("a list with two items swapped passed the check")
	}
	if err := checkServed(ctx, p, u.Train(), topN, "no-such-user", right); err == nil {
		t.Fatal("an unknown user passed the check")
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	same := func(kind string, listed []struct{ Name, Unit string }, want []spec) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(want))
			return
		}
		for k, m := range listed {
			if m.Name != want[k].name || m.Unit != want[k].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, k, m.Name, m.Unit, want[k].name, want[k].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
