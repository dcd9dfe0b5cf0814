package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ganc"
	"ganc/internal/cluster"
	"ganc/internal/serve"
	"ganc/internal/simulate"
)

// workers is how many goroutines and connections the load generator uses:
// the CPU count of the 2-vCPU machine the workloads are sized for, so the
// generator cannot out-thread the system under test.
const workers = 2

// Traffic shape shared by the serving workloads.
const (
	topN         = 10
	batchUsers   = 20
	ingestEvents = 20
	nodeCache    = 8192
	readLimitMs  = 10.0 // read p99 limit a ladder rung must meet
	requestZipf  = 1.0
)

// standardUniverse is the 100k users × 10k items × 1M ratings universe of the
// serving workloads, generated from the run's seed.
func standardUniverse(seed int64) ganc.UniverseConfig {
	return ganc.UniverseConfig{Name: "gancbench", Users: 100_000, Items: 10_000, Ratings: 1_000_000, ZipfExponent: 1.1, Seed: seed}
}

// newClient returns an HTTP client limited to the generator's connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: workers,
			MaxConnsPerHost:     workers,
			DisableCompression:  true,
		},
	}
}

// listen serves h on a fresh loopback port and returns its base URL and a
// function that stops it and waits for its goroutine to end.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close()
		<-done
	}, nil
}

// payload is one pre-built request.
type payload struct {
	path  string
	body  []byte
	user  string   // read
	users []string // batch
	n     int      // events in an ingest batch
}

// trafficGen builds request payloads from the universe's seeded streams.
type trafficGen struct {
	reqs   *simulate.RequestStream
	events *simulate.EventStream
}

func newTrafficGen(u *ganc.Universe, seed int64) *trafficGen {
	return &trafficGen{
		reqs:   u.RequestStream(ganc.RequestStreamConfig{ZipfExponent: requestZipf, Seed: seed}),
		events: u.EventStream(ganc.EventStreamConfig{Seed: seed + 1}),
	}
}

func (g *trafficGen) payloads(arrs []arrival) []payload {
	out := make([]payload, len(arrs))
	for k, a := range arrs {
		switch a.route {
		case routeRead:
			user := g.reqs.NextUser()
			out[k] = payload{path: "/recommend?user=" + url.QueryEscape(user), user: user}
		case routeBatch:
			users := g.reqs.NextUsers(batchUsers)
			body, _ := json.Marshal(serve.BatchRequest{Users: users})
			out[k] = payload{path: "/recommend/batch", body: body, users: users}
		case routeIngest:
			body, _ := json.Marshal(serve.IngestRequest{Events: g.events.NextBatch(ingestEvents)})
			out[k] = payload{path: "/ingest", body: body, n: ingestEvents}
		}
	}
	return out
}

// answer is a response body kept for checking after the run.
type answer struct {
	p    payload
	body []byte
}

// driver sends traffic at one deployment's base URL.
type driver struct {
	client *http.Client
	base   string
	t      *tracer
	gen    *trafficGen

	mu   sync.Mutex
	kept [numRoutes][]answer
}

// keepEvery samples one answer in k per route for the output checks; every
// ingest answer is kept because the exactly-once check sums them all.
var keepEvery = [numRoutes]int{routeRead: 8, routeBatch: 4, routeIngest: 1}

// send issues one request and fails on a transport error or any status but
// 200 (a 429 or 5xx counts against the error rate like a timeout does).
func (d *driver) send(ctx context.Context, a arrival, p payload) error {
	s := d.t.begin("client:"+routeNames[a.route], 0, 0)
	method := http.MethodGet
	var body io.Reader
	if p.body != nil {
		method, body = http.MethodPost, bytes.NewReader(p.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+p.path, body)
	if err != nil {
		return err
	}
	if d.t != nil {
		req.Header.Set(requestIDHeader, strconv.FormatUint(s.ID, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d.t.end(s)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, p.path, resp.StatusCode, raw)
	}
	if a.seq%keepEvery[a.route] == 0 {
		d.mu.Lock()
		d.kept[a.route] = append(d.kept[a.route], answer{p: p, body: raw})
		d.mu.Unlock()
	}
	return nil
}

// run sends arrivals open loop and returns their outcomes.
func (d *driver) run(ctx context.Context, arrs []arrival) []outcome {
	pays := d.gen.payloads(arrs)
	return runOpenLoop(ctx, arrs, workers, func(ctx context.Context, a arrival) error {
		return d.send(ctx, a, pays[a.seq])
	})
}

// closedLoop sends n requests of the mix back to back and returns their
// outcomes and the rate at which they completed.
func (d *driver) closedLoop(ctx context.Context, rng *rand.Rand, n int, weights [numRoutes]int) ([]outcome, float64) {
	t0 := time.Now()
	outs := d.run(ctx, backToBack(rng, n, weights))
	ok := 0
	for _, o := range outs {
		if o.err == nil {
			ok++
		}
	}
	return outs, float64(ok) / time.Since(t0).Seconds()
}

// ladder is a fixed set of three offered rates, low, nominal and high.
// Latencies are read at the nominal rung. warmup is how many requests the
// closed loop before the ladder sends; each of the ladder's closed-loop
// rounds sends capacity requests.
type ladder struct {
	rates    [3]float64
	weights  [numRoutes]int
	warmup   int
	capacity int
}

const nominal = 1 // index of the nominal rate

// ladderRun is what one pass over a ladder measured.
type ladderRun struct {
	rungs    []rungStats // per rate, over all of the rate's segments
	capOuts  []outcome   // every closed-loop round
	capacity float64     // median closed-loop round rate, req/s
}

// measure runs the ladder as five open-loop segments of equal length —
// nominal, low, nominal, high, nominal — each followed by one closed-loop
// round. Spreading the nominal rung and the rounds over the whole run keeps a
// few seconds of outside disturbance from owning a metric. Every segment and
// round starts from a collected heap, so garbage left by the one before
// (under ingest, whole engines) does not set when this one's collections run.
func (d *driver) measure(ctx context.Context, l ladder, total time.Duration, seed int64) ladderRun {
	plan := []int{nominal, 0, nominal, 2, nominal}
	segs := make([][][]outcome, len(l.rates))
	var run ladderRun
	var rates []float64
	for k, rung := range plan {
		rng := rand.New(rand.NewSource(seed + int64(k)))
		runtime.GC()
		outs := d.run(ctx, schedule(rng, l.rates[rung], total/time.Duration(len(plan)), l.weights))
		segs[rung] = append(segs[rung], outs)
		runtime.GC()
		capOuts, rate := d.closedLoop(ctx, rng, l.capacity, l.weights)
		run.capOuts = append(run.capOuts, capOuts...)
		rates = append(rates, rate)
	}
	for k, rate := range l.rates {
		run.rungs = append(run.rungs, summarizeRung(rate, segs[k], readLimitMs))
	}
	run.capacity = median(rates)
	return run
}

// maxPassingRate is the achieved rate of the highest rung that passed, or 0.
func maxPassingRate(rungs []rungStats) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.Pass && r.AchievedRPS > best {
			best = r.AchievedRPS
		}
	}
	return best
}

// decodeRead parses a kept /recommend answer.
func decodeRead(a answer) (serve.RecommendResponse, error) {
	var r serve.RecommendResponse
	if err := json.Unmarshal(a.body, &r); err != nil {
		return r, fmt.Errorf("decoding /recommend answer: %w", err)
	}
	if r.User != a.p.user {
		return r, fmt.Errorf("asked for user %s, answer is for %s", a.p.user, r.User)
	}
	return r, nil
}

// checkLists compares every kept read and batch answer, list by list, with
// the lists pipe computes in process, recording each mismatch. It returns how
// many lists it checked and how many shards answered each batch (none on a
// single node).
func checkLists(ctx context.Context, res *result, d *driver, pipe *ganc.Pipeline, train *ganc.Dataset) (int, []float64) {
	checked := 0
	for _, a := range d.kept[routeRead] {
		r, err := decodeRead(a)
		if err == nil {
			err = checkServed(ctx, pipe, train, topN, a.p.user, r.Items)
		}
		if err != nil {
			res.mismatch(err)
		}
		checked++
	}
	var fanout []float64
	for _, a := range d.kept[routeBatch] {
		// The router's answer is the single node's plus the shards it asked.
		var br cluster.BatchResponse
		if err := json.Unmarshal(a.body, &br); err != nil || len(br.Results) != len(a.p.users) {
			res.mismatch(fmt.Errorf("batch answer does not hold %d results: %v", len(a.p.users), err))
			continue
		}
		fanout = append(fanout, float64(len(br.Shards)))
		for k, r := range br.Results {
			err := checkServed(ctx, pipe, train, topN, a.p.users[k], r.Items)
			if err == nil && (r.User != a.p.users[k] || r.Error != "") {
				err = fmt.Errorf("batch result %d for %s: user %s, error %q", k, a.p.users[k], r.User, r.Error)
			}
			if err != nil {
				res.mismatch(err)
			}
			checked++
		}
	}
	return checked, fanout
}

// fetchItems asks base for one user's list.
func fetchItems(ctx context.Context, client *http.Client, base, user string) ([]string, error) {
	var r serve.RecommendResponse
	if err := getJSON(ctx, client, base, "/recommend?user="+url.QueryEscape(user), &r); err != nil {
		return nil, err
	}
	return r.Items, nil
}
