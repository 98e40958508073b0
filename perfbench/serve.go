package main

// The service workload: a durable serve.Service driven in-process through
// serve.NewHandler (httptest requests and recorders, no sockets) by nproc
// closed-loop clients. A run is a whole number of rounds of one shape, each a
// mixed sub-phase (fresh sync and async specs with concurrent duplicates,
// hot-set repeats and the two known-fault requests), a hit sub-phase
// (the hot set replayed; it is larger than the LRU, so both tiers serve)
// and a prefix sweep (flood variants sharing one schedule prefix). Every
// 200 body is checked byte for byte against a fresh serve.Execute made
// outside the service.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

const (
	serveLRU        = 8  // result LRU entries
	serveHot        = 12 // hot-set specs (> serveLRU, so the durable tier serves too)
	serveSetups     = 15 // set-ups per run; setup_s is their median
	serveHotRepeats = 4  // hot-set requests mixed into each round's mixed sub-phase
	serveHitPasses  = 3  // hot-set replays per hit sub-phase
	serveFixedSeed  = 1  // seed of the fixed hot set
)

// sweepEpochs are the prefix-sweep variants: each extends the previous one,
// so all but the first can resume from its snapshots.
var sweepEpochs = []int{4, 8, 12, 16}

// faultSeeds are flood@udg n=4096 spec seeds whose deployment draw finds no
// connected unit-disk graph in 60 tries (gen.UDGDegTarget keeps degree 8 up
// to n=4096): the request fails with a 500 every time. They are fixed, not
// drawn from the workload seed, so the failed share is the same in every
// run; one is sent per round.
var faultSeeds = []uint64{2, 4, 5, 6}

func faultSpec(round int) serve.Spec {
	return serve.Spec{Graph: "udg", N: 4096, Algo: "flood", Seed: faultSeeds[round%len(faultSeeds)]}
}

// invalidSpec is an mis@phy:sinr spec whose MIS is not independent: its
// record's "valid" row reads 0 (README.md, "Known faults"). Like the
// fault seeds it is fixed, and it is sent once per round; the first
// request computes it, the later ones are served from a cache tier with
// the same body, and every one counts as failed.
var invalidSpec = serve.Spec{Graph: "phy:sinr", N: 512, Algo: "mis", Seed: 17}

// freshSync and freshJobs are the mixed sub-phase's templates: broadcast,
// election, the Decay baselines, MIS and flood over general and geometric
// classes, n ≤ 1024. Each round instantiates them with fresh seeds.
var freshSync = []serve.Spec{
	{Graph: "grid", N: 256, Algo: "broadcast"},
	{Graph: "gnp", N: 256, Algo: "election"},
	{Graph: "udg", N: 512, Algo: "decay-broadcast"},
	{Graph: "cliquechain", N: 256, Algo: "decay-election"},
	{Graph: "phy:sinr", N: 256, Algo: "decay-broadcast"},
	{Graph: "udg", N: 1024, Algo: "flood"},
	{Graph: "churn:grid", N: 256, Algo: "flood", Epochs: 6},
	{Graph: "tree", N: 512, Algo: "mis"},
}

var freshJobs = []serve.Spec{
	{Graph: "phy:cd:grid", N: 256, Algo: "mis"},
	{Graph: "fault:gnp", N: 256, Algo: "flood", Epochs: 6},
}

// hotTemplates make up the hot set, instantiated with fixed seeds.
var hotTemplates = []serve.Spec{
	{Graph: "grid", N: 128, Algo: "broadcast"},
	{Graph: "udg", N: 128, Algo: "mis"},
	{Graph: "gnp", N: 128, Algo: "election"},
	{Graph: "path", N: 128, Algo: "decay-broadcast"},
}

func withSeed(sp serve.Spec, seed uint64) serve.Spec {
	sp.Seed = seed
	return sp
}

// response is one HTTP exchange as a client saw it.
type response struct {
	status int
	xc     string
	body   []byte
}

// client drives the handler in-process.
type client struct {
	h http.Handler
}

func (c client) do(ctx context.Context, method, path string, body []byte) response {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r).WithContext(ctx)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return response{status: rec.Code, xc: rec.Header().Get("X-Cache"), body: rec.Body.Bytes()}
}

// op is one logical operation of a round.
type op struct {
	kind  string // "sync", "job", "fault" (the flood@udg 500), "invalid" (invalidSpec)
	spec  serve.Spec
	fresh int // 1 + the index in freshSync for the mixed sub-phase's fresh sync specs, else 0
}

// opResult is what a client observed for one op.
type opResult struct {
	op
	status int
	xc     string
	body   []byte
	err    error
	lat    time.Duration
	canon  time.Duration // Canonicalize+Hash, traced runs only
	hash   string
}

// serveRun is one service instance with its data directory.
type serveRun struct {
	dir string
	svc *serve.Service
	h   http.Handler
	th  *timedHandler // non-nil when traced
}

func openService(cfg config, k int) (*serveRun, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), k))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	svc, err := serve.Open(serve.Config{
		Workers: cfg.procs, QueueDepth: 256, CacheEntries: serveLRU,
		DataDir: dir, JobRetries: -1,
	})
	if err != nil {
		return nil, err
	}
	sr := &serveRun{dir: dir, svc: svc, h: serve.NewHandler(svc)}
	if cfg.tr != nil {
		sr.th = newTimedHandler(sr.h, cfg.tr)
		sr.h = sr.th
	}
	return sr, nil
}

func (sr *serveRun) close() {
	sr.svc.Close()
	os.RemoveAll(sr.dir)
}

// bodies collects every 200 body per spec hash; all must be identical.
type bodies struct {
	mu    sync.Mutex
	first map[string][]byte
	spec  map[string]serve.Spec
	via   map[string]map[string]int // hash → how it was served → count
}

func (b *bodies) add(hash string, sp serve.Spec, how string, body []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f, ok := b.first[hash]; ok {
		if !bytes.Equal(f, body) {
			return fmt.Errorf("spec %s: %s body differs from the first body served for it", hash[:12], how)
		}
	} else {
		b.first[hash] = append([]byte(nil), body...)
		b.spec[hash] = sp
		b.via[hash] = map[string]int{}
	}
	b.via[hash][how]++
	return nil
}

// execOp runs one op against the handler and records its body. In a
// traced run the op is a span of its own, with a request id that the
// wrapped handler's spans for its submit, polls and fetch share.
func execOp(ctx context.Context, c client, o op, tr *tracer) opResult {
	res := opResult{op: o}
	if tr != nil {
		sp := tr.start("op "+o.kind, nil, tr.newReq())
		defer sp.end()
		ctx = context.WithValue(ctx, opSpanKey{}, sp)
		csp := tr.start("serve.Spec.Canonicalize+Hash", sp, sp.Req)
		t0 := time.Now()
		cs, err := o.spec.Canonicalize()
		if err == nil {
			res.hash = cs.Hash()
		}
		res.canon = time.Since(t0)
		csp.end()
	}
	body, err := json.Marshal(o.spec)
	if err != nil {
		res.err = err
		return res
	}
	t0 := time.Now()
	switch o.kind {
	case "sync", "fault", "invalid":
		r := c.do(ctx, "POST", "/v1/simulate", body)
		res.status, res.xc, res.body = r.status, r.xc, r.body
	case "job":
		r := c.do(ctx, "POST", "/v1/jobs", body)
		if r.status != http.StatusAccepted {
			res.status, res.body = r.status, r.body
			break
		}
		var v serve.JobView
		if err := json.Unmarshal(r.body, &v); err != nil {
			res.err = err
			break
		}
		for v.State != serve.JobDone && v.State != serve.JobFailed {
			time.Sleep(500 * time.Microsecond)
			r = c.do(ctx, "GET", "/v1/jobs/"+v.ID, nil)
			if err := json.Unmarshal(r.body, &v); err != nil {
				res.err = fmt.Errorf("job %s poll: %w", v.ID, err)
				return res
			}
		}
		if v.State == serve.JobFailed {
			res.status, res.body = http.StatusInternalServerError, []byte(v.Error)
			break
		}
		r = c.do(ctx, "GET", v.Result, nil)
		res.status, res.xc, res.body = r.status, "JOB", r.body
	}
	res.lat = time.Since(t0)
	return res
}

// runOps dispatches ops to procs closed-loop clients in order and returns
// the results in op order with the phase's wall time.
func runOps(ctx context.Context, c client, ops []op, procs int, tr *tracer) ([]opResult, time.Duration) {
	results := make([]opResult, len(ops))
	next := make(chan int, len(ops)) // sized to the op count: every index is queued up front
	for i := range ops {
		next <- i
	}
	close(next)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = execOp(ctx, c, ops[i], tr)
			}
		}()
	}
	wg.Wait()
	return results, time.Since(t0)
}

func runServeMix(cfg config) (*outcome, error) {
	out := newOutcome()
	rng := inputRNG(cfg.seed, 3)
	traced := cfg.tr != nil
	ctx := context.Background()

	// The hot set is fixed, not drawn from the workload seed, so every
	// set-up computes the same specs: their cost varies with the seed
	// (a geometric deployment may take several draws to connect), and a
	// seed-drawn hot set made setup_s swing with it.
	hotRNG := inputRNG(serveFixedSeed, 3)
	hot := make([]serve.Spec, serveHot)
	for i := range hot {
		hot[i] = withSeed(hotTemplates[i%len(hotTemplates)], hotRNG.Uint64()|1)
	}
	got := &bodies{first: map[string][]byte{}, spec: map[string]serve.Spec{}, via: map[string]map[string]int{}}
	record := func(rs []opResult) error {
		for _, r := range rs {
			if r.err != nil {
				return r.err
			}
			if r.status != http.StatusOK {
				continue
			}
			cs, err := r.spec.Canonicalize()
			if err != nil {
				return err
			}
			if err := got.add(cs.Hash(), r.spec, r.xc, r.body); err != nil {
				return err
			}
		}
		return nil
	}

	// Set-up: open a fresh durable service and compute the hot set cold,
	// serveSetups times; the last service stays up for the rounds. One
	// client sends the hot set in order: with nproc clients the set-up's
	// length hung on how the twelve computations happened to split across
	// the workers, and varied by a third from one set-up to the next.
	var setups []float64
	var sr *serveRun
	for k := 0; k < serveSetups; k++ {
		if sr != nil {
			sr.close()
		}
		runtime.GC()
		sp := cfg.tr.start("setup", nil, 0)
		t0 := time.Now()
		var err error
		sr, err = openService(cfg, k)
		if err != nil {
			return nil, err
		}
		ops := make([]op, len(hot))
		for i, h := range hot {
			ops[i] = op{kind: "sync", spec: h}
		}
		rs, _ := runOps(ctx, client{sr.h}, ops, 1, cfg.tr)
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		for _, r := range rs {
			if r.status != http.StatusOK || r.err != nil {
				return nil, fmt.Errorf("hot-set compute %v: status %d %v %s", r.spec, r.status, r.err, r.body)
			}
		}
		if err := record(rs); err != nil {
			return nil, err
		}
	}
	defer sr.close()
	c := client{sr.h}

	var missLat, jobLat, sweepTimes, overhead []float64
	missByTmpl := make([][]float64, len(freshSync))
	var mixedOK, hitOK int
	var mixedWall, hitWall time.Duration
	var mixedRPS []float64 // per round: successful mixed responses per second
	var canon []float64
	missLatBySpec := map[string][]float64{}
	var last time.Duration
	t0 := time.Now()
	rounds := 0
	for round := 0; round == 0 || fits(t0, cfg.seconds, last); round++ {
		rounds++
		roundStart := time.Now()
		rsp := cfg.tr.start(fmt.Sprintf("round %d", round), nil, 0)
		// Mixed sub-phase.
		var ops []op
		ops = append(ops, op{kind: "fault", spec: faultSpec(round)}, op{kind: "invalid", spec: invalidSpec})
		for i, t := range freshSync {
			sp := withSeed(t, rng.Uint64()|1)
			ops = append(ops, op{kind: "sync", spec: sp, fresh: i + 1}, op{kind: "sync", spec: sp, fresh: i + 1})
			if i < len(freshJobs) {
				ops = append(ops, op{kind: "job", spec: withSeed(freshJobs[i], rng.Uint64()|1)})
			}
			if i < serveHotRepeats {
				ops = append(ops, op{kind: "sync", spec: hot[rng.IntN(len(hot))]})
			}
		}
		rs, wall := runOps(ctx, c, ops, cfg.procs, cfg.tr)
		mixedWall += wall
		ok0 := mixedOK
		for _, r := range rs {
			out.attempted++
			switch {
			case r.kind == "fault" && r.status == http.StatusInternalServerError && strings.Contains(string(r.body), "no connected UDG"):
				out.fail("flood@udg n=4096: no connected deployment in 60 tries (500)")
				continue
			case r.kind == "invalid" && r.status == http.StatusOK && errors.Is(checkRecordRows(r.body), errNotValid):
				out.fail(fmt.Sprintf("mis@phy:sinr n=%d seed %d: record row valid reads 0 (MIS not independent)", invalidSpec.N, invalidSpec.Seed))
				continue
			case r.err != nil:
				return nil, fmt.Errorf("%s %v: %w", r.kind, r.spec, r.err)
			case r.status != http.StatusOK:
				return nil, fmt.Errorf("%s %v: status %d: %s", r.kind, r.spec, r.status, r.body)
			}
			mixedOK++
			if traced {
				canon = append(canon, float64(r.canon.Nanoseconds())/1e3)
			}
			switch {
			case r.kind == "job":
				jobLat = append(jobLat, ms(r.lat))
			case r.xc == "MISS":
				missLat = append(missLat, ms(r.lat))
				if r.fresh > 0 {
					missByTmpl[r.fresh-1] = append(missByTmpl[r.fresh-1], ms(r.lat))
				}
				if traced {
					missLatBySpec[r.hash] = append(missLatBySpec[r.hash], ms(r.lat))
				}
			}
		}
		mixedRPS = append(mixedRPS, float64(mixedOK-ok0)/wall.Seconds())
		if err := record(rs); err != nil {
			return nil, err
		}

		// Hit sub-phase: the hot set, serveHitPasses times in seeded order.
		ops = ops[:0]
		for p := 0; p < serveHitPasses; p++ {
			for _, i := range rng.Perm(len(hot)) {
				ops = append(ops, op{kind: "sync", spec: hot[i]})
			}
		}
		rs, wall = runOps(ctx, c, ops, cfg.procs, cfg.tr)
		hitWall += wall
		for _, r := range rs {
			out.attempted++
			if r.err != nil || r.status != http.StatusOK || !strings.HasPrefix(r.xc, "HIT") {
				return nil, fmt.Errorf("hot replay %v: status %d X-Cache %q %v", r.spec, r.status, r.xc, r.err)
			}
			hitOK++
			if traced {
				canon = append(canon, float64(r.canon.Nanoseconds())/1e3)
			}
		}
		if err := record(rs); err != nil {
			return nil, err
		}

		// Prefix sweep: one client, variants in order.
		base := withSeed(serve.Spec{Graph: "churn:grid", N: 256, Algo: "flood", Reps: 2}, rng.Uint64()|1)
		ops = ops[:0]
		for _, e := range sweepEpochs {
			v := base
			v.Epochs = e
			ops = append(ops, op{kind: "sync", spec: v})
		}
		rs, wall = runOps(ctx, c, ops, 1, cfg.tr)
		sweepTimes = append(sweepTimes, wall.Seconds())
		for _, r := range rs {
			out.attempted++
			if r.err != nil || r.status != http.StatusOK {
				return nil, fmt.Errorf("sweep %v: status %d %v %s", r.spec, r.status, r.err, r.body)
			}
		}
		if err := record(rs); err != nil {
			return nil, err
		}
		rsp.end()
		last = time.Since(roundStart)
	}
	elapsed := time.Since(t0)

	// Scrape the service's own counters now that its traffic is over.
	var st serve.Stats
	if err := json.Unmarshal(c.do(ctx, "GET", "/v1/stats", nil).body, &st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	prom := string(c.do(ctx, "GET", "/metrics", nil).body)

	// Oracle: every distinct spec executed afresh outside the service.
	execMS, encUS, err := oracle(cfg, got)
	if err != nil {
		return nil, err
	}

	out.e2e["setup_s"] = median(setups)
	// The MISS set holds one request per fresh spec, so its plain median
	// falls between two templates of very different cost and jumps with
	// the seed; the geometric mean of per-template medians does not.
	logSum, tmpls := 0.0, 0
	for _, lats := range missByTmpl {
		if len(lats) > 0 {
			logSum += math.Log(median(lats))
			tmpls++
		}
	}
	out.e2e["op_p50_ms"] = math.Exp(logSum / float64(max(1, tmpls)))
	out.e2e["ops_per_s"] = median(mixedRPS)
	out.notes = append(out.notes,
		fmt.Sprintf("serve_mix rounds=%d elapsed=%.2fs procs=%d lru=%d hot=%d distinct_specs=%d", rounds, elapsed.Seconds(), cfg.procs, serveLRU, serveHot, len(got.first)),
		fmt.Sprintf("serve_mix miss_p50_ms=%.4g (n=%d) job_p50_ms=%.4g (n=%d) rps=%.4g hit_rps=%.4g sweep_s=%.4g setup_s=%v",
			median(missLat), len(missLat), median(jobLat), len(jobLat), float64(mixedOK)/mixedWall.Seconds(),
			float64(hitOK)/hitWall.Seconds(), median(sweepTimes), setups),
		fmt.Sprintf("serve_mix stats executions=%d coalesced=%d cache_hits=%d cache_misses=%d store_hits=%d prefix_hits=%d prefix_epochs_saved=%d",
			st.Executions, st.Coalesced, st.CacheHits, st.CacheMisses, st.StoreHits, st.PrefixHits, st.PrefixEpochsSaved))

	for hash, lats := range missLatBySpec {
		if e, ok := execMS[hash]; ok {
			for _, l := range lats {
				overhead = append(overhead, l-e)
			}
		}
	}
	tiers := sr.th
	if tiers == nil {
		tiers = &timedHandler{byXC: map[string][]float64{}}
	}
	execAll := make([]float64, 0, len(execMS))
	for _, v := range execMS {
		execAll = append(execAll, v)
	}
	// mean reads a histogram's mean from its _sum and _count series.
	mean := func(hist, labels string) float64 {
		n := promSample(prom, hist+"_count"+labels)
		if n == 0 {
			return 0
		}
		return promSample(prom, hist+"_sum"+labels) / n
	}
	out.layer["serve.hit_us"] = median(tiers.byXC["HIT"])
	out.layer["serve.durable_hit_us"] = median(tiers.byXC["HIT-DURABLE"])
	out.layer["serve.canon_us"] = median(canon)
	out.layer["store.get_us"] = 1e6 * mean("serve_store_get_seconds", `{keyspace="result"}`)
	out.layer["serve.cache_hit_ratio"] = float64(st.CacheHits) / float64(max(1, st.CacheHits+st.CacheMisses))
	out.layer["serve.execute_ms"] = median(execAll)
	out.layer["serve.overhead_ms"] = median(overhead)
	out.layer["serve.encode_us"] = median(encUS)
	out.layer["store.put_ms"] = 1e3 * mean("serve_store_put_seconds", `{keyspace="result"}`)
	out.layer["serve.queue_wait_ms"] = 1e3 * mean("serve_job_queue_wait_seconds", "")
	out.layer["journal.fsync_ms"] = 1e3 * mean("serve_journal_fsync_seconds", "")
	out.layer["serve.executions"] = float64(st.Executions)
	out.layer["serve.coalesced"] = float64(st.Coalesced)
	out.layer["serve.prefix_epochs_saved"] = float64(st.PrefixEpochsSaved)
	out.layer["serve.job_p50_ms"] = median(jobLat)
	out.layer["serve.hit_rps"] = float64(hitOK) / hitWall.Seconds()
	out.layer["serve.sweep_s"] = median(sweepTimes)
	for _, k := range engineLayers {
		out.layer[k] = 0
	}
	return out, nil
}

// oracle executes every distinct spec served with a 200 through
// serve.Execute, outside the service, and compares bytes. It returns the
// execution time per spec hash (ms) and the Result.JSON encode times (µs).
func oracle(cfg config, got *bodies) (map[string]float64, []float64, error) {
	hashes := make([]string, 0, len(got.first))
	for h := range got.first {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	type res struct {
		exec float64
		enc  float64
		err  error
	}
	results := make([]res, len(hashes))
	next := make(chan int, len(hashes)) // sized to the spec count: every index is queued up front
	for i := range hashes {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < cfg.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				h := hashes[i]
				sp := got.spec[h]
				esp := cfg.tr.start("serve.Execute", nil, 0)
				t0 := time.Now()
				r, err := serve.Execute(sp, 1, nil)
				exec := time.Since(t0)
				esp.end()
				if err != nil {
					results[i].err = fmt.Errorf("oracle %v: %w", sp, err)
					continue
				}
				jsp := cfg.tr.start("serve.Result.JSON", nil, 0)
				t1 := time.Now()
				want, err := r.JSON()
				enc := time.Since(t1)
				jsp.end()
				if err == nil {
					err = checkBody(got.first[h], want)
				}
				if errors.Is(err, errNotValid) && sp == invalidSpec {
					err = nil // counted as failed when it was served
				}
				if err != nil {
					results[i].err = fmt.Errorf("spec %v (served as %v): %w", sp, got.via[h], err)
					continue
				}
				results[i] = res{exec: ms(exec), enc: float64(enc.Nanoseconds()) / 1e3}
			}
		}()
	}
	wg.Wait()
	execMS := map[string]float64{}
	var enc []float64
	for i, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
		execMS[hashes[i]] = r.exec
		enc = append(enc, r.enc)
	}
	return execMS, enc, nil
}

// engineLayers are the per-layer metrics of the engine workloads, zero on
// serve_mix: the service's engines are not reachable from outside it.
var engineLayers = []string{
	"gen.build_ms", "graph.csr_bytes_per_node", "run.bytes_per_node", "phy.resolve_ms", "phy.sync_ms",
	"phy.fallback_sweeps", "radio.setup_ms", "radio.loop_self_ms",
	"radio.node_steps_per_s", "radio.steps",
}

// serveLayers are the per-layer metrics of serve_mix, zero on the engine
// workloads, which never reach the service.
var serveLayers = []string{
	"serve.hit_us", "serve.durable_hit_us", "serve.canon_us", "store.get_us",
	"serve.cache_hit_ratio", "serve.execute_ms", "serve.overhead_ms",
	"serve.encode_us", "store.put_ms", "serve.queue_wait_ms", "journal.fsync_ms",
	"serve.executions", "serve.coalesced", "serve.prefix_epochs_saved",
	"serve.job_p50_ms", "serve.hit_rps", "serve.sweep_s",
}

func addZeroServeLayers(out *outcome) {
	for _, k := range serveLayers {
		out.layer[k] = 0
	}
}
