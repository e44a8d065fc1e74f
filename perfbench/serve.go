package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/service"
)

// serveW drives an in-process reprod daemon (service.Server on a
// loopback listener, fresh cache, maxProcs workers) with maxProcs
// closed-loop clients. Each client owns its keys, so no two requests
// for one key are ever in flight together and the cache counters are
// exact for a seed.
type serveW struct {
	seed   int64
	outDir string

	dir   string
	srv   *service.Server
	hs    *http.Server
	done  chan struct{}
	tport *http.Transport
	base  string
	// tr is the tracer of the pass in progress (nil when untraced),
	// read by the server-side span wrapper.
	tr atomic.Pointer[tracer]
	// known maps each client's hot-key hashes to the elapsed_ns the
	// warm-up computed.
	known [maxProcs]map[string]int64
	seq   [maxProcs][]request
}

// Serve inputs: small runs of several suite apps, sized so a computed
// /v1/run takes about a millisecond to a few tens of milliseconds.
var (
	serveApps    = []string{"connect", "radb", "pray", "nowsort"}
	analyticApps = []string{"connect", "radb", "nowsort"}
	// analyticAxes are the per-message axes the paper turns up (Figs.
	// 5–7): each analytic key is swept once on each.
	analyticAxes = []string{"o", "g", "L"}
)

// The /v1/run mix is `reprod loadtest`'s: a hot fraction of 0.75 over
// 16 hot keys (hotPerClient per client), the rest on cold keys, every
// response Minimal. Unlike the loadtest's 256-key cold pool, a cold key
// here is never repeated, so every cold request computes. The counts
// keep that 3:1 ratio and leave hit_p99_ms and cold_p90_ms at least ten
// samples beyond them (1080 hits and 360 colds over both clients,
// against 1000 and 100 needed). The analytic sweeps are
// the floor of at least 20 instrumented-baseline keys, each requested
// more than once (one sweep per axis), which also leaves
// analytic_cold_p50_ms ten samples beyond it.
const (
	serveProcs        = 8
	serveScale        = 1.0 / 1024
	hotPerClient      = 8
	hitsPerClient     = 540
	coldsPerClient    = 180
	analyticPerClient = 10
	analyticPoints    = 40
)

type reqKind int

const (
	kindHit reqKind = iota
	kindCold
	kindAnalytic
)

type request struct {
	kind  reqKind
	run   service.RunRequest
	sweep service.SweepRequest
}

func newServe(seed int64, outDir string) *serveW {
	return &serveW{seed: seed, outDir: outDir}
}

func runReq(app string, seed int64) service.RunRequest {
	return service.RunRequest{
		SpecJSON: service.SpecJSON{App: app, Procs: serveProcs, Scale: serveScale, Seed: seed, Verify: true},
		Minimal:  true,
	}
}

// sequence builds each client's fixed request sequence from the seed.
// Spec seeds are drawn without repetition, so every key is distinct.
func (w *serveW) sequence() (hot [maxProcs][]service.RunRequest) {
	rng := rand.New(rand.NewSource(w.seed))
	used := map[int64]bool{}
	fresh := func() int64 {
		for {
			s := rng.Int63n(1<<31) + 1
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	for c := range w.seq {
		var seq []request
		for i := 0; i < hotPerClient; i++ {
			hot[c] = append(hot[c], runReq(serveApps[i%len(serveApps)], fresh()))
		}
		for i := 0; i < hitsPerClient; i++ {
			seq = append(seq, request{kind: kindHit, run: hot[c][rng.Intn(hotPerClient)]})
		}
		for i := 0; i < coldsPerClient; i++ {
			seq = append(seq, request{kind: kindCold, run: runReq(serveApps[i%len(serveApps)], fresh())})
		}
		values := make([]float64, analyticPoints)
		for i := range values {
			values[i] = 2.5 * float64(i)
		}
		for i := 0; i < analyticPerClient; i++ {
			app, s := analyticApps[i%len(analyticApps)], fresh()
			for _, axis := range analyticAxes {
				seq = append(seq, request{kind: kindAnalytic, sweep: service.SweepRequest{
					App: app, Procs: serveProcs, Scale: serveScale, Seed: s,
					Knob: axis, Values: values, Analytic: true,
				}})
			}
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		w.seq[c] = seq
	}
	return hot
}

// setup warms each client's hot keys into a new cache through one
// daemon, then starts the daemon the pass talks to on that cache, so
// that every /v1/stats figure the pass reads covers the pass alone.
func (w *serveW) setup() error {
	w.close()
	dir, err := os.MkdirTemp(w.outDir, "serve-cache-")
	if err != nil {
		return err
	}
	w.dir = dir
	if err := w.start(); err != nil {
		return err
	}
	hot := w.sequence()
	for c := range hot {
		w.known[c] = map[string]int64{}
		cl := w.client(c, nil)
		for _, req := range hot[c] {
			resp, err := cl.Run(context.Background(), req)
			if err != nil {
				return fmt.Errorf("warm %s seed %d: %w", req.App, req.Seed, err)
			}
			if resp.Source != service.SourceComputed || !resp.Verified {
				return fmt.Errorf("warm %s seed %d: source %s, verified %v", req.App, req.Seed, resp.Source, resp.Verified)
			}
			w.known[c][resp.Hash] = resp.ElapsedNs
		}
	}
	w.stop()
	return w.start()
}

// start runs a daemon on w.dir.
func (w *serveW) start() error {
	srv, err := service.New(service.Config{CacheDir: w.dir, Workers: maxProcs})
	if err != nil {
		return err
	}
	w.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: traceHandler{next: srv.Handler(), tr: &w.tr}}
	w.done = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}(w.hs, w.done)
	w.tport = &http.Transport{MaxIdleConnsPerHost: maxProcs}
	return nil
}

// stop shuts the daemon down and waits for it; the cache stays.
func (w *serveW) stop() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = w.hs.Shutdown(ctx) // nothing is in flight between passes
	cancel()
	<-w.done
	w.srv.Close()
	w.tport.CloseIdleConnections()
	w.hs = nil
}

// client is client c's view of the daemon. With a tracer, each request
// carries its span id to the server-side span (see traceHandler).
func (w *serveW) client(c int, tr *tracer) *service.Client {
	var rt http.RoundTripper = w.tport
	if tr != nil {
		rt = spanTransport{next: w.tport}
	}
	return &service.Client{BaseURL: w.base, ID: "client-" + strconv.Itoa(c), HTTP: &http.Client{Transport: rt}}
}

func (w *serveW) close() {
	w.stop()
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// unreached: serve does not time single simulations, and never calls
// the run engine or the experiment harness directly.
func (w *serveW) unreached() []string {
	return append(runMs(paperApps, scaleKernels),
		"sim.ns_per_event", "am.ns_per_msg", "sim.bytes_per_proc", "apps.verify_skew_ns", "run.", "exp.render_ms")
}

// clientLog is what one client observed; its outcome holds the
// client's attempted, failed and problem tallies.
type clientLog struct {
	outcome
	hits, colds, anCold, anWarm []time.Duration
	verifyFail                  int64
	coldKeys                    []service.SpecJSON
	analyticKeys                []service.SweepRequest
}

func (w *serveW) pass(tr *tracer) (*outcome, error) {
	o := newOutcome()
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	var logs [maxProcs]clientLog
	var wg sync.WaitGroup
	start := time.Now()
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.drive(c, w.client(c, tr), tr, &logs[c])
		}(c)
	}
	wg.Wait()
	o.wall = time.Since(start)
	tr.stop()
	// The daemon started after the warm-up, so its counters, latency
	// histograms and queue high-water mark cover this pass alone.
	st, err := w.client(0, nil).Stats(context.Background())
	if err != nil {
		return nil, err
	}

	if tr != nil {
		// Client self time: the request's span minus the server-side
		// span inside it — the HTTP/JSON share of the client latency.
		if st := tr.summarize()["service.Client.Run"]; st != nil {
			o.layer["http.client_self_p50_us"] = float64(st.p50Self().Nanoseconds()) / 1e3
		}
	}

	var all clientLog
	for _, l := range logs {
		all.hits = append(all.hits, l.hits...)
		all.colds = append(all.colds, l.colds...)
		all.anCold = append(all.anCold, l.anCold...)
		all.anWarm = append(all.anWarm, l.anWarm...)
		all.verifyFail += l.verifyFail
		all.coldKeys = append(all.coldKeys, l.coldKeys...)
		all.analyticKeys = append(all.analyticKeys, l.analyticKeys...)
		o.attempted += l.attempted
		o.failed += l.failed
		o.problems = append(o.problems, l.problems...)
	}
	o.ops = o.attempted - o.failed
	for _, p := range []struct {
		name string
		d    []time.Duration
		q    float64
	}{
		{"hit_p50_ms", all.hits, 0.50}, {"hit_p99_ms", all.hits, 0.99},
		{"cold_p50_ms", all.colds, 0.50}, {"cold_p90_ms", all.colds, 0.90},
		{"analytic_cold_p50_ms", all.anCold, 0.50}, {"analytic_warm_p50_ms", all.anWarm, 0.50},
	} {
		v, err := percentile(p.d, p.q)
		if err != nil {
			o.fail("%s: %v", p.name, err)
		}
		o.layer[p.name] = v
	}
	// Each request class's share of the clients' summed latency.
	classes := []struct {
		name string
		d    []time.Duration
	}{
		{"serve.hit_time_frac", all.hits}, {"serve.cold_time_frac", all.colds},
		{"serve.analytic_cold_time_frac", all.anCold}, {"serve.analytic_warm_time_frac", all.anWarm},
	}
	var total time.Duration
	for _, c := range classes {
		total += sum(c.d)
	}
	for _, c := range classes {
		o.layer[c.name] = sum(c.d).Seconds() / total.Seconds()
	}

	o.exact["serve.hits"] = int64(len(all.hits))
	o.exact["serve.colds"] = int64(len(all.colds))
	o.exact["serve.analytic_cold"] = int64(len(all.anCold))
	o.exact["serve.analytic_warm"] = int64(len(all.anWarm))
	o.exact["apps.verify_fail"] = all.verifyFail
	o.exact["service.disk_hits"] = st.Cache.DiskHits
	o.exact["service.computed"] = st.Cache.Computed
	o.exact["service.coalesced"] = st.Cache.Coalesced
	o.exact["service.rejected"] = st.Cache.Rejected
	if err := w.storedCounters(o, all.coldKeys, all.analyticKeys); err != nil {
		return nil, err
	}

	o.layer["service.hit_rate"] = st.HitRate
	o.layer["service.max_queue_depth"] = float64(st.Sched.MaxDepth)
	o.layer["service.server_p50_us.run"] = float64(st.Latency["run"].P50Us)
	o.layer["service.server_p50_us.sweep"] = float64(st.Latency["sweep"].P50Us)
	o.layer["service.cache_bytes"] = float64(dirBytes(w.dir))
	return o, nil
}

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

// drive sends client c's sequence, one request at a time, and checks
// every response.
func (w *serveW) drive(c int, cl *service.Client, tr *tracer, l *clientLog) {
	elapsed := w.known[c] // hash → elapsed_ns: every answer for a hash must agree
	root := tr.begin("perfbench.serve.client", 0, 0)
	defer tr.end(root)
	for i, req := range w.seq[c] {
		l.attempted++
		reqID := int64(c)<<32 | int64(i+1)
		name := "service.Client.Run"
		if req.kind == kindAnalytic {
			name = "service.Client.Sweep"
		}
		id := tr.begin(name, root, reqID)
		ctx := context.Background()
		if tr != nil {
			ctx = context.WithValue(ctx, spanKey{}, spanRef{req: reqID, span: id})
		}
		t := time.Now()
		var (
			run   *service.RunResponse
			sweep *service.SweepResponse
			err   error
		)
		if req.kind == kindAnalytic {
			sweep, err = cl.Sweep(ctx, req.sweep)
		} else {
			run, err = cl.Run(ctx, req.run)
		}
		d := time.Since(t)
		tr.end(id)
		if err != nil {
			l.fail("request %d: %v", i, err) // a 429 reads "service: rejected, retry after …"
			continue
		}
		switch req.kind {
		case kindHit:
			if run.Source != service.SourceDisk {
				l.fail("hot key %s answered from %s, want disk", run.Hash, run.Source)
			}
			l.hits = append(l.hits, d)
			l.checkRun(run, elapsed)
		case kindCold:
			if run.Source != service.SourceComputed {
				l.fail("new key %s answered from %s, want computed", run.Hash, run.Source)
			}
			l.colds = append(l.colds, d)
			l.coldKeys = append(l.coldKeys, req.run.SpecJSON)
			l.checkRun(run, elapsed)
		case kindAnalytic:
			if sweep.Cache.Computed == 1 {
				l.anCold = append(l.anCold, d)
				l.analyticKeys = append(l.analyticKeys, req.sweep)
			} else {
				l.anWarm = append(l.anWarm, d)
			}
			l.checkSweep(sweep, elapsed)
		}
	}
}

func (l *clientLog) checkRun(r *service.RunResponse, elapsed map[string]int64) {
	if !r.Verified {
		l.verifyFail++
		l.fail("%s: self-check did not pass", r.Hash)
	}
	if r.ElapsedNs <= 0 {
		l.fail("%s: elapsed_ns %d", r.Hash, r.ElapsedNs)
	}
	if e, ok := elapsed[r.Hash]; ok && e != r.ElapsedNs {
		l.fail("%s: elapsed_ns %d, earlier %d", r.Hash, r.ElapsedNs, e)
	}
	elapsed[r.Hash] = r.ElapsedNs
}

func (l *clientLog) checkSweep(r *service.SweepResponse, elapsed map[string]int64) {
	if len(r.Points) != analyticPoints {
		l.fail("analytic %s: %d points, want %d", r.BaseHash, len(r.Points), analyticPoints)
		return
	}
	if r.Cache.Total != 1 || r.Cache.Computed+r.Cache.DiskHits != 1 {
		l.fail("analytic %s: cache %+v, want one computed or disk resolution", r.BaseHash, r.Cache)
	}
	if p := r.Points[0]; p.Value != 0 || p.ElapsedNs != r.Baseline.ElapsedNs || p.Source != service.SourceAnalytic {
		l.fail("analytic %s: Δ=0 point %+v, baseline elapsed %d", r.BaseHash, p, r.Baseline.ElapsedNs)
	}
	if e, ok := elapsed[r.BaseHash]; ok && e != r.Baseline.ElapsedNs {
		l.fail("analytic %s: baseline elapsed_ns %d, earlier %d", r.BaseHash, r.Baseline.ElapsedNs, e)
	}
	elapsed[r.BaseHash] = r.Baseline.ElapsedNs
}

// storedCounters reads the pass's computed results back from the
// daemon's persistent store, outside the timed region (the /v1/run
// responses are Minimal and carry no result): the simulators' counters
// over every cold run, and the linear pieces of every analytic key's
// three curves.
func (w *serveW) storedCounters(o *outcome, colds []service.SpecJSON, analytic []service.SweepRequest) error {
	disk, err := service.NewDiskStore(w.dir)
	if err != nil {
		return err
	}
	load := func(sj service.SpecJSON) (*apps.Result, error) {
		s, err := sj.Spec()
		if err != nil {
			return nil, err
		}
		out, found, err := disk.Load(s)
		if err != nil || !found {
			return nil, fmt.Errorf("stored result of %v: found %v, err %v", s, found, err)
		}
		return &out.Res, nil
	}
	var events, switches, saved, messages, simNs, pieces int64
	for _, k := range colds {
		res, err := load(k)
		if err != nil {
			return err
		}
		simNs += int64(res.Elapsed)
		events += res.Sched.EventsRun
		switches += res.Sched.Switches
		saved += res.Sched.SwitchesSaved
		if res.Stats == nil {
			o.fail("cold %s seed %d: stored result has no message statistics", k.App, k.Seed)
			continue
		}
		messages += res.Stats.TotalSent()
	}
	for _, k := range analytic {
		res, err := load(service.SpecJSON{App: k.App, Procs: k.Procs, Scale: k.Scale, Seed: k.Seed, Depgraph: true})
		if err != nil {
			return err
		}
		if res.Curves == nil {
			return fmt.Errorf("analytic key %s seed %d: stored run has no curves", k.App, k.Seed)
		}
		pieces += int64(len(res.Curves.O.Segs) + len(res.Curves.L.Segs) + len(res.Curves.G.Segs))
	}
	o.exact["sim.elapsed_ns"] = simNs
	o.exact["sim.events"] = events
	o.exact["sim.switches"] = switches
	o.exact["sim.switches_saved"] = saved
	o.exact["am.messages"] = messages
	o.exact["tolerance.breakpoints"] = pieces
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// Span propagation from client to server: the client's span rides in a
// request header, and the server-side span names it as its parent.

type spanKey struct{}

type spanRef struct {
	req  int64
	span int
}

const spanHeader = "X-Perfbench-Span"

type spanTransport struct{ next http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(ref.req, 10)+"/"+strconv.Itoa(ref.span))
	}
	return t.next.RoundTrip(r)
}

type traceHandler struct {
	next http.Handler
	tr   *atomic.Pointer[tracer]
}

func (h traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	var req int64
	var parent int
	if v := r.Header.Get(spanHeader); v != "" {
		a, b, _ := strings.Cut(v, "/")
		req, _ = strconv.ParseInt(a, 10, 64)
		parent, _ = strconv.Atoi(b)
	}
	id := tr.begin("service.Server "+r.URL.Path, parent, req)
	h.next.ServeHTTP(w, r)
	tr.end(id)
}
