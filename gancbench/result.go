package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counts is sent / succeeded / failed for one route in one phase.
type counts struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// result is everything one workload run reports.
type result struct {
	// endToEnd holds the gated metrics, the same names on every workload.
	endToEnd map[string]metric
	// layer holds the per-layer metrics of a traced run; layers a workload
	// leaves idle read 0.
	layer map[string]metric
	// named holds the workload's metrics under their specific names (read_p99_ms,
	// ingest_p95_ms, f_at_10, ...), printed in the report.
	named map[string]metric
	// traffic is phase → route → counts.
	traffic map[string]map[string]*counts
	// mismatches lists every failed output check.
	mismatches []string
	// failed counts the failed output checks; failed requests are counted
	// in traffic.
	failed int
	params map[string]any
	extra  map[string]any
}

func newResult() *result {
	return &result{
		endToEnd: map[string]metric{},
		layer:    map[string]metric{},
		named:    map[string]metric{},
		traffic:  map[string]map[string]*counts{},
		params:   map[string]any{},
		extra:    map[string]any{},
	}
}

// count adds outcomes to the traffic table under phase.
func (r *result) count(phase string, outs []outcome) {
	if r.traffic[phase] == nil {
		r.traffic[phase] = map[string]*counts{}
	}
	for _, o := range outs {
		name := routeNames[o.route]
		c := r.traffic[phase][name]
		if c == nil {
			c = &counts{}
			r.traffic[phase][name] = c
		}
		c.Sent++
		if o.err != nil {
			c.Failed++
		} else {
			c.Succeeded++
		}
	}
}

// mismatch records a failed output check; it fails the run.
func (r *result) mismatch(err error) {
	r.mismatches = append(r.mismatches, err.Error())
	r.failed++
}

// env is the machine and build a run measured, written into every output.
type env struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Workload   string         `json:"workload"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

func newEnv(workload string, seed int64, seconds int, trace bool) env {
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Workload:   workload,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the VCS revision stamped into the binary
// when it was built inside a git checkout, otherwise a digest of the Go
// sources of the module the benchmark runs from (the current directory).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write([]byte(path))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// heapWatch samples the heap's footprint, the bytes of heap memory the
// runtime holds from the OS and has not returned, every few milliseconds
// until stopped, and keeps the peak. The footprint covers transient working
// memory (the per-user frequency snapshots of a cold RecommendAll) that a
// post-collection reading misses, and it moves with the collector's heap
// goal rather than with when a collection happens to finish.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampling goroutine until done is closed
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
			{Name: "/memory/classes/heap/free:bytes"},
		}
		for {
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64()+s[1].Value.Uint64()+s[2].Value.Uint64())
			select {
			case <-tick.C:
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

// peakMB stops the watch and returns the peak footprint in MiB.
func (w *heapWatch) peakMB() float64 {
	close(w.stop)
	<-w.done
	return float64(w.peak) / (1 << 20)
}

// runtimeReading is a snapshot of the Go runtime's allocation and CPU
// counters; the difference of two prices a phase.
type runtimeReading struct {
	allocs, bytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(k int) float64 {
		switch s[k].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[k].Value.Uint64())
		case metrics.KindFloat64:
			return s[k].Value.Float64()
		}
		return 0
	}
	return runtimeReading{allocs: v(0), bytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}
