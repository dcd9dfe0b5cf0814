package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// route is one kind of serving request in a traffic mix.
type route int

const (
	routeRead   route = iota // GET /recommend
	routeBatch               // POST /recommend/batch
	routeIngest              // POST /ingest
	numRoutes
)

var routeNames = [numRoutes]string{"read", "batch", "ingest"}

// arrival is one scheduled request: when it is due, measured from the start
// of its rung, and which route it takes. seq indexes the rung's payloads.
type arrival struct {
	due   time.Duration
	route route
	seq   int
}

// schedule draws Poisson arrivals at rate requests per second over dur, each
// assigned a route with probability proportional to its weight. The same rng
// state always yields the same schedule.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, weights [numRoutes]int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, route: pickRoute(rng, weights), seq: len(out)})
	}
}

// backToBack returns n arrivals all due at once, routes drawn as in schedule:
// each worker sends as soon as its previous answer is in (a closed loop).
func backToBack(rng *rand.Rand, n int, weights [numRoutes]int) []arrival {
	out := make([]arrival, n)
	for k := range out {
		out[k] = arrival{route: pickRoute(rng, weights), seq: k}
	}
	return out
}

// pickRoute draws a route with probability proportional to its weight.
func pickRoute(rng *rand.Rand, weights [numRoutes]int) route {
	total := 0
	for _, w := range weights {
		total += w
	}
	pick := rng.Intn(total)
	r := route(0)
	for pick >= weights[r] {
		pick -= weights[r]
		r++
	}
	return r
}

// outcome records one request of an open-loop run. All times are offsets
// from the start of the run.
type outcome struct {
	route route
	due   time.Duration
	sent  time.Duration
	done  time.Duration
	err   error
}

// latency is the request's time from when it was due, not from when it was
// sent, so a stall also charges the wait it imposes on the requests behind it.
func (o outcome) latency() time.Duration { return o.done - o.due }

// lag is how late the generator sent the request.
func (o outcome) lag() time.Duration { return o.sent - o.due }

// runOpenLoop sends every arrival at its due time from a fixed set of worker
// goroutines and returns one outcome per arrival, in schedule order. A worker
// takes the earliest unsent arrival, sleeps until it is due and sends it; when
// every worker is busy, the arrivals behind them wait and their lag grows.
// Arrivals still unsent when ctx ends are recorded with ctx's error.
func runOpenLoop(ctx context.Context, arrivals []arrival, workers int, send func(ctx context.Context, a arrival) error) []outcome {
	outs := make([]outcome, len(arrivals))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				o := outcome{route: a.route, due: a.due}
				waitUntil(ctx, start.Add(a.due))
				o.sent = time.Since(start)
				if o.err = ctx.Err(); o.err == nil {
					o.err = send(ctx, a)
				}
				o.done = time.Since(start)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// waitUntil blocks until t or until ctx ends. The runtime's timers wake an
// idle process up to a millisecond late (the poller sleeps in whole
// milliseconds), which would add half a millisecond to every latency timed
// from its due time, so the last stretch is slept with nanosleep(2), which
// the kernel ends within tens of microseconds.
func waitUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return
		}
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only sends early
	}
}

// lagGrowing reports whether the generator fell progressively further behind
// during a run: the median lag of the last quarter of requests exceeds both
// twice that of the first quarter and one millisecond. A run the system keeps
// up with shows flat, timer-sized lag.
func lagGrowing(outs []outcome) bool {
	q := len(outs) / 4
	if q < 2 {
		return false
	}
	first, last := lagsMs(outs[:q]), lagsMs(outs[len(outs)-q:])
	return median(last) > math.Max(2*median(first), 1)
}

func lagsMs(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for k, o := range outs {
		xs[k] = ms(o.lag())
	}
	return xs
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowedQuantile splits each segment's reads of route r, in schedule
// order, into windows of the fewest reads that support the q-quantile (1 000
// for p99, 200 for p95; a segment's remainder joins its last window), takes
// the quantile of each window and returns the median of those quantiles. A
// burst of stalls then moves the quantile of the windows it falls in, not
// the reported one. With too few reads for one window, it returns the
// quantile of all of them.
func windowedQuantile(segs [][]outcome, r route, q float64) float64 {
	size := 1
	for !supports(size, q) {
		size++
	}
	var qs, all []float64
	for _, seg := range segs {
		var lat []float64
		for _, o := range seg {
			if o.route == r && o.err == nil {
				lat = append(lat, ms(o.latency()))
			}
		}
		all = append(all, lat...)
		for n := len(lat) / size; n > 0; n-- {
			w := lat[:size]
			if n == 1 {
				w = lat
			}
			qs = append(qs, percentile(w, q))
			lat = lat[size:]
		}
	}
	if len(qs) == 0 {
		return percentile(all, q)
	}
	return median(qs)
}

// rungStats summarizes one rung of an offered-rate ladder.
type rungStats struct {
	OfferedRPS  float64              `json:"offered_rps"`
	AchievedRPS float64              `json:"achieved_rps"`
	Sent        [numRoutes]int       `json:"sent"`
	Failed      [numRoutes]int       `json:"failed"`
	LagP99Ms    float64              `json:"lag_p99_ms"`
	LagGrowing  bool                 `json:"lag_growing"`
	ReadP99Ms   float64              `json:"read_p99_ms"`
	Pass        bool                 `json:"pass"`
	lat         [numRoutes][]float64 // per-route latencies from due time, ms
	lags        []float64
	segs        [][]outcome
}

// summarizeRung reduces the outcomes of a rung's segments. The rung passes
// when no request failed, the read p99 is within limitMs and the generator's
// lag grew in no segment.
func summarizeRung(offered float64, segs [][]outcome, limitMs float64) rungStats {
	st := rungStats{OfferedRPS: offered, segs: segs}
	var busy time.Duration
	ok, failed := 0, 0
	for _, outs := range segs {
		st.lags = append(st.lags, lagsMs(outs)...)
		st.LagGrowing = st.LagGrowing || lagGrowing(outs)
		var end time.Duration
		for _, o := range outs {
			st.Sent[o.route]++
			end = max(end, o.done)
			if o.err != nil {
				st.Failed[o.route]++
				failed++
				continue
			}
			ok++
			st.lat[o.route] = append(st.lat[o.route], ms(o.latency()))
		}
		busy += end
	}
	if busy > 0 {
		st.AchievedRPS = float64(ok) / busy.Seconds()
	}
	st.LagP99Ms = percentile(st.lags, 0.99)
	st.ReadP99Ms = percentile(st.lat[routeRead], 0.99)
	st.Pass = failed == 0 && len(st.lat[routeRead]) > 0 && st.ReadP99Ms <= limitMs && !st.LagGrowing
	return st
}
