package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ganc"
)

// span is one timed call at a layer boundary. Spans of one request share Req,
// the ID of the benchmark client's span; Parent is the span that caused it
// (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns it with its ID assigned; close it with end.
func (t *tracer) begin(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	id := t.ids.Add(1)
	if req == 0 {
		req = id
	}
	return span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval that
// its children cover (overlapping children count once), keyed by span ID.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		cur := s.Start // everything before cur is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerOf maps a span name such as "serve:/recommend" to its layer, "serve".
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ":")
	return layer
}

// ctxKey carries the enclosing span through a request context, so spans
// opened below a traced handler name it as their parent.
type ctxKey struct{}

type spanRef struct{ id, req uint64 }

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	return ref
}

// requestIDHeader carries the client span's ID to the server, so wrapper
// spans on the server side join the request's trace.
const requestIDHeader = "X-Request-ID"

// traceHandler wraps h in a span named layer+":"+path. The parent is the
// client span named by the request's X-Request-ID header.
func traceHandler(t *tracer, layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		s := t.begin(layer+":"+r.URL.Path, req, req)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{s.ID, s.Req})))
		t.end(s)
	})
}

// tracedEngine wraps the Engine given to a server so each per-user compute is
// a span below the handler span that asked for it. Only traced runs use it.
type tracedEngine struct {
	ganc.Engine
	t *tracer
}

// RecommendUser implements ganc.Engine.
func (e tracedEngine) RecommendUser(ctx context.Context, u ganc.UserID, n int) (ganc.TopNSet, error) {
	ref := spanFrom(ctx)
	s := e.t.begin("core:recommend_user", ref.id, ref.req)
	defer e.t.end(s)
	return e.Engine.RecommendUser(ctx, u, n)
}

// traceLayers are the layers spans are named after, in report order.
var traceLayers = []string{"client", "serve", "cluster", "core", "longtail", "recommender", "eval", "offline"}

// selfShares reports each layer's share of the traced time: the self time of
// its spans over the self time of all spans.
func selfShares(res *result, spans []span) {
	self := selfTimes(spans)
	per := map[string]time.Duration{}
	var total time.Duration
	for _, s := range spans {
		per[layerOf(s.Name)] += self[s.ID]
		total += self[s.ID]
	}
	for _, layer := range traceLayers {
		share := 0.0
		if total > 0 {
			share = float64(per[layer]) / float64(total)
		}
		res.layer["selftime."+layer+"_share"] = metric{share, "ratio"}
	}
}
