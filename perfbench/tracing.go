package main

// The traced run's instruments. Everything here sits outside the program:
// spans are recorded around the public calls the benchmark makes, and the
// program's own layers are observed only through values the benchmark hands
// it — a wrapped phy.Model, a wrapped radio.Factory (node 0 only, so the
// step loop is not slowed for the other n-1 nodes) and a wrapped
// http.Handler — plus scrapes of GET /metrics and GET /v1/stats.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/radio"
)

// span is one recorded interval. Parent is the id of the span that caused
// it (0 for a root); Req groups the spans of one request or run.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Req    int64          `json:"req"`
	Name   string         `json:"name"`
	Start  time.Duration  `json:"start_ns"`
	End    time.Duration  `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	tracer *tracer
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the workloads call it
// unconditionally.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	next    int64
	nextReq int64
	spans   []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq returns a fresh request id.
func (t *tracer) newReq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	return t.nextReq
}

// start opens a span under parent (nil for a root) in request req.
func (t *tracer) start(name string, parent *span, req int64) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &span{ID: t.next, Req: req, Name: name, Start: time.Since(t.t0), tracer: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// record adds an already-measured interval, for work timed by a wrapper
// and summed over many calls (one span per engine Resolve would be tens of
// thousands of spans per run).
func (t *tracer) record(name string, parent *span, req int64, start time.Time, d time.Duration, attrs map[string]any) {
	s := t.start(name, parent, req)
	if s == nil {
		return
	}
	t.mu.Lock()
	s.Start = start.Sub(t.t0)
	s.End = s.Start + d
	s.Attrs = attrs
	t.mu.Unlock()
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.End = time.Since(s.tracer.t0)
	s.tracer.mu.Unlock()
}

func (s *span) set(k string, v any) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]any{}
	}
	s.Attrs[k] = v
	s.tracer.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedModel wraps a phy.Model, timing Sync and Resolve and forwarding
// Stats. It also fires a one-shot hook at the first Resolve, the moment
// every run-resident structure exists (the engine, the node protocols and
// the model's scratch).
type timedModel struct {
	phy.Model
	syncTime   time.Duration
	resolves   int
	resolve    time.Duration
	onFirstRes func()
}

func (m *timedModel) Sync(step int, csr *graph.CSR) error {
	t0 := time.Now()
	err := m.Model.Sync(step, csr)
	m.syncTime += time.Since(t0)
	return err
}

func (m *timedModel) Resolve(f *phy.Frontier, out *phy.Outcome) {
	if m.onFirstRes != nil {
		fn := m.onFirstRes
		m.onFirstRes = nil
		fn()
	}
	t0 := time.Now()
	m.Model.Resolve(f, out)
	m.resolve += time.Since(t0)
	m.resolves++
}

// Stats forwards phy.StatsSource, with zeros for models without it.
func (m *timedModel) Stats() phy.Stats {
	if s, ok := m.Model.(phy.StatsSource); ok {
		return s.Stats()
	}
	return phy.Stats{}
}

// firstActNode wraps node 0's protocol to run a hook at its first Act: the
// end of the engine's set-up (node construction, the diameter BFS, model
// Sync) and the start of the step loop.
type firstActNode struct {
	radio.Protocol
	hook func()
}

func (p *firstActNode) Act(step int) radio.Action {
	if h := p.hook; h != nil {
		p.hook = nil
		h()
	}
	return p.Protocol.Act(step)
}

// wrapFactory wraps only node 0, so n-1 nodes run through the unmodified
// protocol and the step loop keeps its cost.
func wrapFactory(f radio.Factory, hook func()) radio.Factory {
	return func(info radio.NodeInfo) radio.Protocol {
		p := f(info)
		if info.Index == 0 {
			return &firstActNode{Protocol: p, hook: hook}
		}
		return p
	}
}

// liveHeap is the GC'd live heap, the DESIGN.md §11 footprint reading.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// timedHandler wraps the service's http.Handler, recording one span per
// request and the handler-side latency by X-Cache tier.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	byXC map[string][]float64 // X-Cache → handler latencies (µs)
}

func newTimedHandler(next http.Handler, tr *tracer) *timedHandler {
	return &timedHandler{next: next, tr: tr, byXC: map[string][]float64{}}
}

// opSpanKey carries the span of the client operation a request belongs
// to in the request's context; its request id groups the operation's
// submit, polls and fetch.
type opSpanKey struct{}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := r.Context().Value(opSpanKey{}).(*span)
	var req int64
	if parent != nil {
		req = parent.Req
	}
	sp := h.tr.start("http "+r.Method+" "+routeOf(r.URL.Path), parent, req)
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	xc := w.Header().Get("X-Cache")
	sp.set("x_cache", xc)
	sp.end()
	if r.URL.Path == "/v1/simulate" {
		h.mu.Lock()
		h.byXC[xc] = append(h.byXC[xc], float64(d.Nanoseconds())/1e3)
		h.mu.Unlock()
	}
}

// routeOf collapses path parameters so span names stay few.
func routeOf(path string) string {
	for _, p := range []string{"/v1/jobs/", "/v1/results/"} {
		if strings.HasPrefix(path, p) {
			return p + "{id}"
		}
	}
	return path
}

// promSample reads one sample value from a Prometheus text exposition:
// the line whose series (name plus label set) is exactly series.
func promSample(text, series string) float64 {
	var v float64
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			fmt.Sscan(rest, &v)
			return v
		}
	}
	return 0
}
