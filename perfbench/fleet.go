package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
)

const (
	fleetShards = 3
	// sweepEvery: each client's every 50th request is a sweep (2%), on a
	// fixed schedule so every run sends the same share.
	sweepEvery = 50
	// sliceWidth is the window slice fleet-mix's throughput is measured
	// over; the reported rate is the median slice's.
	sliceWidth = time.Second
	// fleetSetupReps fleets are built in set-up; all but the last are
	// drained at once.
	fleetSetupReps = 7
	drainTimeout   = 5 * time.Second
	requestTimeout = 60 * time.Second
	opHeader       = "X-Client-ID"
	opPrefix       = "perfbench-"
)

// fleetInputs are fleet-mix's requests: the simulate points with their
// Zipf weights, and the sweep.
type fleetInputs struct {
	points []point
	bodies [][]byte
	// cdf is the cumulative Zipf weight of points[0..i]; rank order is a
	// seeded shuffle.
	cdf       []float64
	sweepPts  []point
	sweepBody []byte
}

// buildFleetInputs draws fleet-mix's simulate points: for every (format,
// channels) of the paper grid, four of the five clocks at exact fidelity
// and fraction 0.02, and independently four at auto fidelity and fraction
// 0.1 — 192 points whose composition does not depend on the seed. Zipf
// ranks alternate between the two tiers, each in seeded order, so every
// seed puts the same weight on exact and on auto points.
func buildFleetInputs(seed int64, tiny bool) (*fleetInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	formats, channels, freqs := core.FormatNames, core.PaperChannels, core.PaperFreqsMHz
	keep := len(freqs) - 1
	exactFraction := 0.02
	if tiny {
		formats, channels, keep, exactFraction = formats[:1], channels[:2], 2, 0.002
	}
	var tiers [2][]server.SimulateRequest
	for t, tier := range []struct {
		fidelity string
		fraction float64
	}{{"exact", exactFraction}, {"auto", 0.1}} {
		for _, f := range formats {
			for _, ch := range channels {
				for _, i := range rng.Perm(len(freqs))[:keep] {
					tiers[t] = append(tiers[t], server.SimulateRequest{
						Format: f, Channels: ch, FreqMHz: freqs[i],
						Fraction: tier.fraction, Fidelity: tier.fidelity,
					})
				}
			}
		}
		rng.Shuffle(len(tiers[t]), func(i, j int) { tiers[t][i], tiers[t][j] = tiers[t][j], tiers[t][i] })
	}
	var reqs []server.SimulateRequest
	for i := range tiers[0] {
		reqs = append(reqs, tiers[0][i], tiers[1][i])
	}
	pts, err := lowerAll(reqs)
	if err != nil {
		return nil, err
	}
	in := &fleetInputs{points: pts, cdf: make([]float64, len(pts))}
	sum := 0.0
	for i := range pts {
		sum += 1 / float64(i+1)
		in.cdf[i] = sum
	}
	for i := range in.cdf {
		in.cdf[i] /= sum
	}
	for _, p := range pts {
		b, err := json.Marshal(&p.req)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	sweep := server.SweepRequest{Formats: formats, Channels: channels, FreqsMHz: freqs, Fraction: 0.1, Fidelity: "auto"}
	grid, err := sweep.Grid(1 << 12)
	if err != nil {
		return nil, err
	}
	for i := range grid {
		grid[i].Fidelity = "auto"
	}
	if in.sweepPts, err = lowerAll(grid); err != nil {
		return nil, err
	}
	in.sweepBody, err = json.Marshal(&sweep)
	return in, err
}

// member is one listening part of the fleet and how to drain it.
type member struct {
	addr string
	stop func(context.Context) error
}

// serve mounts h on a fresh loopback listener.
func serve(h http.Handler) (member, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return member{}, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return member{addr: ln.Addr().String(), stop: func(ctx context.Context) error {
		err := hs.Shutdown(ctx)
		if err != nil {
			hs.Close()
		}
		<-done
		return err
	}}, nil
}

// fleet is an in-process 3-shard simrouter fleet: default-config
// server.New shards behind a shard.Router.
type fleet struct {
	url     string
	members []member // router first, so it drains before its shards
}

// startFleet starts the shards and the router. Untraced, each serves
// through its own Start; traced, the benchmark mounts each Handler behind
// its span-recording wrapper. reg (traced only) collects server_* and
// router_* counters.
func startFleet(tr *tracer, reg *metrics.Registry) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	shards := map[string]string{}
	for i := 0; i < fleetShards; i++ {
		srv := server.New(server.Config{Metrics: reg})
		var m member
		if tr == nil {
			if err := srv.Start("127.0.0.1:0"); err != nil {
				return nil, err
			}
			m = member{addr: srv.Addr(), stop: srv.Drain}
		} else {
			if m, err = serve(tr.shardHandler(srv.Handler())); err != nil {
				srv.Close()
				return nil, err
			}
			stop := m.stop
			m.stop = func(ctx context.Context) error { defer srv.Close(); return stop(ctx) }
		}
		f.members = append(f.members, m)
		shards[fmt.Sprintf("s%d", i)] = "http://" + m.addr
	}
	rt, err := shard.NewRouter(shard.RouterConfig{Shards: shards, Metrics: reg})
	if err != nil {
		return nil, err
	}
	var rm member
	if tr == nil {
		if err := rt.Start("127.0.0.1:0"); err != nil {
			rt.Close()
			return nil, err
		}
		rm = member{addr: rt.Addr(), stop: rt.Drain}
	} else {
		if rm, err = serve(tr.routerHandler(rt.Handler())); err != nil {
			rt.Close()
			return nil, err
		}
		stop := rm.stop
		rm.stop = func(ctx context.Context) error { defer rt.Close(); return stop(ctx) }
	}
	f.members = append([]member{rm}, f.members...)
	f.url = "http://" + rm.addr
	return f, nil
}

// stop drains the router (which also stops its health loop), then every
// shard, each within drainTimeout, and drops the idle keep-alive
// connections the router opened through the default transport.
func (f *fleet) stop() error {
	var errs []error
	for _, m := range f.members {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := m.stop(ctx); err != nil {
			errs = append(errs, fmt.Errorf("draining %s: %w", m.addr, err))
		}
		cancel()
	}
	f.members = nil
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

func (f *fleet) addrs() []string {
	var out []string
	for _, m := range f.members {
		out = append(out, m.addr)
	}
	return out
}

// waitHealthy polls /healthz on every member until each answers 200.
func waitHealthy(ctx context.Context, client *http.Client, f *fleet) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, addr := range f.addrs() {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s never became healthy: %w", addr, ctx.Err())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// newClient returns the load generator's client: at most nproc
// connections, one per closed-loop client.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc(),
			MaxIdleConnsPerHost: nproc(),
			DisableCompression:  true,
		},
	}
}

func runFleetMix(ctx context.Context, opt options, rep *report) (err error) {
	var tr *tracer
	var reg *metrics.Registry
	if opt.trace {
		tr = newTracer()
		tr.enabled.Store(false)
		reg = metrics.NewRegistry()
	}
	client := newClient()
	defer client.CloseIdleConnections()

	// Set-up: inputs, then a fleet answering /healthz on every member.
	var in *fleetInputs
	var f *fleet
	defer func() {
		if f != nil {
			if serr := f.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	var setups []float64
	for i := 0; i < fleetSetupReps; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
			f = nil
		}
		runtime.GC()
		start := time.Now()
		if in, err = buildFleetInputs(opt.seed, opt.tiny); err != nil {
			return err
		}
		if f, err = startFleet(tr, reg); err != nil {
			return err
		}
		if opt.onFleet != nil {
			opt.onFleet(f.addrs())
		}
		if err := waitHealthy(ctx, client, f); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	ref, err := reference(ctx, in.points)
	if err != nil {
		return err
	}
	sweepRef, err := reference(ctx, in.sweepPts)
	if err != nil {
		return err
	}
	if opt.corruptReference {
		corrupt(ref)
	}
	sweepRows := make([]string, len(sweepRef))
	for i, a := range sweepRef {
		sweepRows[i] = a.row
	}
	lg := &loadGen{url: f.url, client: client, in: in, ref: ref, sweepRows: strings.Join(sweepRows, "\n"), seed: opt.seed, tr: tr}
	var cycles int64
	for _, a := range ref {
		cycles += a.cycles
	}
	rep.record["digest"] = digest(append(append([]answer(nil), ref...), sweepRef...))
	rep.record["simulated_cycles"] = cycles
	rep.record["params"] = map[string]any{
		"shards": fleetShards, "clients": nproc(), "simulate_points": len(in.points),
		"sweep_points": len(in.sweepPts), "sweep_share": 1.0 / sweepEvery, "zipf_exponent": 1,
	}

	// Every point is answered once before timing: the misses are the
	// shards' one-time cache fill, simulated exactly as in grid-exact, and
	// the timed window is the service's steady state.
	warmStart := time.Now()
	if err := lg.warm(ctx, rep); err != nil {
		return err
	}
	rep.record["warm_s"] = time.Since(warmStart).Seconds()
	if !opt.trace {
		before := totalAlloc()
		r, err := lg.run(ctx, opt.seconds, rep)
		if err != nil {
			return err
		}
		alloc := totalAlloc() - before
		rep.set("setup_s", median(setups), "s")
		throughputMetrics(rep, r)
		rep.set("alloc_kb_per_op", float64(alloc)/1024/float64(r.ops), "KB/op")
		latencyMetrics(rep, r.slices)
		rep.printf("fleet-mix: %d requests (%d points) in %.3f s", r.ops, r.points, r.elapsed.Seconds())
		return nil
	}

	// Traced run: half the window with spans off and half with them on.
	// The misses' layers are measured below.
	initLayerMetrics(rep)
	plain, err := lg.run(ctx, opt.seconds/2, rep)
	if err != nil {
		return err
	}
	served := func() (requests, shed, joined, failovers int64) {
		for _, ep := range []string{"simulate", "sweep", "batch"} {
			requests += reg.Counter("server_requests_total", metrics.Label{Key: "endpoint", Value: ep}).Value()
		}
		return requests, reg.Counter("server_shed_total").Value(),
			reg.Counter("server_dedup_joined_total").Value(), reg.Counter("router_failovers_total").Value()
	}
	req0, shed0, joined0, failovers0 := served()
	tr.enabled.Store(true)
	lg.counts = &fleetCounts{}
	traced, err := lg.run(ctx, opt.seconds/2, rep)
	if err != nil {
		return err
	}
	tr.enabled.Store(false)
	req1, shed1, joined1, failovers1 := served()

	// The layers below the cache run inside the shards only on misses;
	// measure them on the decomposed pipeline over the simulated points.
	var exact []point
	var exactRef []answer
	for i, p := range in.points {
		if p.tier == core.FidelityExact {
			exact = append(exact, p)
			exactRef = append(exactRef, ref[i])
		}
	}
	pl := newPipeline()
	counts, err := allocPass(ctx, pl, exact, exactRef, rep)
	if err != nil {
		return err
	}
	tr.enabled.Store(true)
	if _, _, err := decomposedPass(ctx, pl, exact, exactRef, tr, 1<<20, rep); err != nil {
		return err
	}
	tr.enabled.Store(false)
	tab := tr.table()
	pipelineMetrics(rep, tab, counts, len(exact))

	c := lg.counts
	rep.set("simcache.key_s", tab[layerKey].Mean, "s")
	rep.set("simcache.lookups", float64(c.hits+c.joins+c.simulated), "count")
	rep.set("simcache.hits", float64(c.hits), "count")
	rep.set("simcache.joins", float64(c.joins), "count")
	rep.set("simcache.simulated", float64(c.simulated), "count")
	rep.set("simcache.hit_ratio", ratio(c.hits+c.joins, c.hits+c.joins+c.simulated), "ratio")
	rep.set("analytic.estimate_s", tab[layerEstimate].Mean, "s")
	rep.set("analytic.points", float64(c.estimated), "count")
	rep.set("analytic.fallbacks", float64(c.fallbacks), "count")
	rep.set("server.decode_s", tab[layerDecode].Mean, "s")
	rep.set("server.handler_s", tab[layerServer].Mean, "s")
	rep.set("server.requests", float64(req1-req0), "count")
	rep.set("server.shed", float64(shed1-shed0), "count")
	rep.set("server.dedup_joined", float64(joined1-joined0), "count")
	rep.set("shard.handler_s", tab[layerRouter].Mean, "s")
	rep.set("shard.self_s", tab[layerRouter].SelfMean, "s")
	rep.set("shard.failovers", float64(failovers1-failovers0), "count")
	rep.set("http.roundtrip_s", tab[layerRoundtrip].Mean, "s")
	return finishTrace(opt, rep, tr, tab, plain, traced)
}

// fleetCounts tallies what the traced half's responses say about the
// cache and fidelity tiers.
type fleetCounts struct {
	mu                     sync.Mutex
	hits, joins, simulated int64
	estimated, fallbacks   int64
}

// loadGen is fleet-mix's closed loop: nproc clients, each sending its
// next request only after the previous answer arrived and was checked.
type loadGen struct {
	url       string
	client    *http.Client
	in        *fleetInputs
	ref       []answer
	sweepRows string
	seed      int64
	tr        *tracer
	counts    *fleetCounts // nil: responses' cache headers are not tallied
	runs      int64
}

// run drives the loop for window and returns the requests it completed.
func (lg *loadGen) run(ctx context.Context, window time.Duration, rep *report) (passResult, error) {
	lg.runs++
	deadline := time.Now().Add(window)
	n := nproc()
	done := make([][]completion, n)
	oks := make([][]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[c] = fmt.Errorf("client %d panicked: %v", c, p)
				}
			}()
			rng := rand.New(rand.NewSource(lg.seed*1_000_003 + lg.runs*101 + int64(c)))
			// Clients sweep at staggered points of the schedule.
			offset := int64(c * sweepEvery / n)
			for seq := int64(0); time.Now().Before(deadline); seq++ {
				if ctx.Err() != nil {
					errs[c] = ctx.Err()
					return
				}
				idx := -1
				if (seq+offset)%sweepEvery != sweepEvery-1 {
					idx = sort.SearchFloat64s(lg.in.cdf, rng.Float64())
					idx = min(idx, len(lg.in.points)-1)
				}
				op := lg.runs<<50 | int64(c)<<40 | seq
				points, ok, latency := lg.send(ctx, idx, op)
				done[c] = append(done[c], completion{time.Since(start), latency, points})
				oks[c] = append(oks[c], ok)
			}
		}(c)
	}
	wg.Wait()
	agg := passResult{elapsed: time.Since(start)}
	for c := 0; c < n; c++ {
		if errs[c] != nil {
			return agg, errs[c]
		}
		tally(rep, oks[c])
		for _, d := range done[c] {
			agg.ops++
			agg.points += d.points
			agg.lat = append(agg.lat, d.latency)
		}
	}
	agg.slices = agg.slice(done, window)
	return agg, nil
}

// completion is one answered request: when it completed, from the
// window's start, its latency, and how many grid points it answered.
type completion struct {
	at      time.Duration
	latency time.Duration
	points  int64
}

// slice fills the request and point rates of every whole slice of the
// window, and returns each slice's latencies; a window shorter than one
// slice is one slice.
func (r *passResult) slice(done [][]completion, window time.Duration) [][]time.Duration {
	width := sliceWidth
	slices := int(window / width)
	if slices == 0 {
		slices, width = 1, r.elapsed
	}
	lat := make([][]time.Duration, slices)
	points := make([]int64, slices)
	for _, cs := range done {
		for _, c := range cs {
			if i := int(c.at / width); i < slices {
				lat[i] = append(lat[i], c.latency)
				points[i] += c.points
			}
		}
	}
	for i := range lat {
		r.opRates = append(r.opRates, float64(len(lat[i]))/width.Seconds())
		r.pointRates = append(r.pointRates, float64(points[i])/width.Seconds())
	}
	return lat
}

// warm asks for every simulate point once, and for the sweep, checking
// each answer.
func (lg *loadGen) warm(ctx context.Context, rep *report) error {
	ok := make([]bool, 0, len(lg.in.points)+1)
	for i := range lg.in.points {
		_, good, _ := lg.send(ctx, i, 0)
		ok = append(ok, good)
	}
	_, good, _ := lg.send(ctx, -1, 0)
	tally(rep, append(ok, good))
	return ctx.Err()
}

// send posts simulate point idx, or the sweep for idx < 0, and checks the
// answer.
func (lg *loadGen) send(ctx context.Context, idx int, op int64) (points int64, ok bool, latency time.Duration) {
	sweep := idx < 0
	path, body := "/v1/sweep", lg.in.sweepBody
	if !sweep {
		path, body = "/v1/simulate", lg.in.bodies[idx]
	}
	t0 := time.Now()
	start := lg.tr.now()
	status, hdr, data, err := lg.post(ctx, path, body, op)
	lg.tr.record(layerRoundtrip, noLayer, op, start, lg.tr.now())
	latency = time.Since(t0)
	if err != nil || status != http.StatusOK {
		if ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: status %d: %v %s\n", path, status, err, bytes.TrimSpace(data))
		}
		return 0, false, latency
	}
	if sweep {
		var resp server.SweepResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return 0, false, latency
		}
		rows := make([]string, len(resp.Points))
		for i, p := range resp.Points {
			rows[i] = p.CSVRow()
			lg.countTier(p.Estimated)
		}
		lg.countCache(hdr.Get("X-Sim-Cache"))
		return int64(len(resp.Points)), strings.Join(rows, "\n") == lg.sweepRows, latency
	}
	var resp server.SimulateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, false, latency
	}
	if lg.in.points[idx].tier == core.FidelityAuto {
		lg.countTier(resp.Estimated)
	}
	lg.countCache(hdr.Get("X-Sim-Cache"))
	return 1, resp.CSVRow() == lg.ref[idx].row, latency
}

func (lg *loadGen) post(ctx context.Context, path string, body []byte, op int64) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, opPrefix+strconv.FormatInt(op, 10))
	resp, err := lg.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// countCache tallies an X-Sim-Cache header: one outcome for a simulate,
// "outcome=n,..." for a sweep.
func (lg *loadGen) countCache(h string) {
	if lg.counts == nil || h == "" {
		return
	}
	c := lg.counts
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, part := range strings.Split(h, ",") {
		name, num, found := strings.Cut(part, "=")
		n := int64(1)
		if found {
			n, _ = strconv.ParseInt(num, 10, 64)
		}
		switch name {
		case core.OutcomeHit.String():
			c.hits += n
		case core.OutcomeJoined.String():
			c.joins += n
		case core.OutcomeSimulated.String():
			c.simulated += n
		}
	}
}

func (lg *loadGen) countTier(estimated bool) {
	if lg.counts == nil {
		return
	}
	lg.counts.mu.Lock()
	defer lg.counts.mu.Unlock()
	if estimated {
		lg.counts.estimated++
	} else {
		lg.counts.fallbacks++
	}
}

// opOf recovers the op a request belongs to from its client ID, which the
// router forwards to the shards.
func opOf(r *http.Request) int64 {
	op, _ := strconv.ParseInt(strings.TrimPrefix(r.Header.Get(opHeader), opPrefix), 10, 64)
	return op
}

// routerHandler times the router's handler for each request.
func (t *tracer) routerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(layerRouter, layerRoundtrip, opOf(r), start, t.now())
	})
}

// shardHandler times a shard's handler and, before it and outside its
// span, repeats the request's decode, cache-key and analytic-estimate
// calls so those layers are timed without instrumenting the server.
func (t *tracer) shardHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		op := opOf(r)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		t.shadow(op, r.URL.Path, body)
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(layerServer, layerRouter, op, start, t.now())
	})
}

// shadow times server.DecodeJSON, core.CacheKey per point and, for auto
// points, core.AnalyticResult, as children of the router's span.
func (t *tracer) shadow(op int64, path string, body []byte) {
	var reqs []server.SimulateRequest
	start := t.now()
	switch path {
	case "/v1/simulate":
		var req server.SimulateRequest
		if server.DecodeJSON(bytes.NewReader(body), &req) != nil {
			return
		}
		reqs = append(reqs, req)
	case "/v1/batch":
		var req server.BatchRequest
		if server.DecodeJSON(bytes.NewReader(body), &req) != nil {
			return
		}
		for _, p := range req.Points {
			if p.Fidelity == "" {
				p.Fidelity = req.Fidelity
			}
			reqs = append(reqs, p)
		}
	default:
		return
	}
	t.record(layerDecode, layerRouter, op, start, t.now())
	for _, req := range reqs {
		w, mc, err := req.Point()
		if err != nil {
			continue
		}
		start = t.now()
		core.CacheKey(w, mc)
		t.record(layerKey, layerRouter, op, start, t.now())
		if req.Fidelity == "auto" {
			start = t.now()
			core.AnalyticResult(w, mc)
			t.record(layerEstimate, layerRouter, op, start, t.now())
		}
	}
}
