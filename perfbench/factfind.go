package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/httpapi"
	"depsense/internal/obs"
	"depsense/internal/qual"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

const (
	// bodyScale makes each body a Ukraine 1/20 world: about 360 messages
	// and 38 KB, about 11 ms of cold pipeline work.
	bodyScale = 20
	bodyTopK  = 20
	// serverSeed and serverWorkers are ssserve's -seed and -workers
	// defaults.
	serverSeed    = 1
	serverWorkers = 1
	// clients is the number of closed-loop clients, one per core of the
	// 2-vCPU host the bounds were set on: factfind-unique saturates it.
	clients = 2
	// uniqueBodies is how many distinct bodies one factfind-unique rep
	// sends, each once, to a fresh server: every request misses the cache
	// and runs the apollo pipeline cold.
	uniqueBodies = 1000
)

// ffBody is one /v1/factfind request body with its reference answer.
type ffBody struct {
	json []byte
	want ranking // apollo.Run's top-K on the same input
	// precision is want's top_precision.
	precision float64
}

// bodyWorldSeed pins the worlds behind the request bodies, as worldSeed
// does for ingest: every invocation sends the same 1,000 bodies, so
// top_precision is the same on every run and a seed sweep measures the host
// rather than the inputs.
const bodyWorldSeed = 1

// makeBodies generates n bodies, each a world from its own seed, and their
// reference answers.
func makeBodies(n int) ([]ffBody, error) {
	rng := randutil.New(bodyWorldSeed)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	bodies := make([]ffBody, n)
	errs := make([]error, n)
	parallel(n, func(i int) { bodies[i], errs[i] = makeBody(seeds[i]) })
	return bodies, errors.Join(errs...)
}

func makeBody(seed int64) (ffBody, error) {
	sc := twittersim.Small("Ukraine", bodyScale)
	w, err := twittersim.Generate(sc, randutil.New(seed))
	if err != nil {
		return ffBody{}, fmt.Errorf("generate body world: %w", err)
	}
	req := httpapi.Request{Sources: w.Graph.N(), Algorithm: "EM-Ext", TopK: bodyTopK}
	for i := 0; i < w.Graph.N(); i++ {
		for _, anc := range w.Graph.Ancestors(i) {
			req.Follows = append(req.Follows, [2]int{i, anc})
		}
	}
	for _, t := range w.Tweets {
		req.Messages = append(req.Messages, httpapi.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text})
	}
	data, err := json.Marshal(req)
	if err != nil {
		return ffBody{}, fmt.Errorf("encode body: %w", err)
	}

	// The reference is the pipeline the handler runs, on the input the
	// handler builds from the body, called directly.
	graph := depgraph.NewGraph(req.Sources)
	for _, e := range req.Follows {
		if err := graph.AddFollow(e[0], e[1]); err != nil {
			return ffBody{}, fmt.Errorf("reference graph: %w", err)
		}
	}
	msgs := make([]apollo.Message, len(req.Messages))
	for i, m := range req.Messages {
		msgs[i] = apollo.Message{Source: m.Source, Time: m.Time, Text: m.Text}
	}
	finder := baselines.ExtendedByName(req.Algorithm, core.Options{Seed: serverSeed, Workers: serverWorkers})
	out, err := apollo.Run(apollo.Input{NumSources: req.Sources, Messages: msgs, Graph: graph}, finder,
		apollo.Options{TopK: bodyTopK})
	if err != nil {
		return ffBody{}, fmt.Errorf("reference run: %w", err)
	}
	b := ffBody{json: data}
	for _, j := range out.Ranked {
		b.want.ids = append(b.want.ids, j)
		b.want.bits = append(b.want.bits, math.Float64bits(out.Result.Posterior[j]))
	}
	if b.precision, err = topPrecision(b.want.ids, out.MessageAssertion, w.Tweets, w.Kinds); err != nil {
		return ffBody{}, err
	}
	return b, nil
}

// checkResponse decodes a response and compares its ranking with the
// reference; it returns the response's iteration count.
func checkResponse(code int, body []byte, b *ffBody) (iterations int, err error) {
	if code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", code, body)
	}
	var resp httpapi.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	var got ranking
	for _, ra := range resp.Ranked {
		got.ids = append(got.ids, ra.Assertion)
		got.bits = append(got.bits, math.Float64bits(ra.Posterior))
	}
	if !got.equal(b.want) {
		return 0, errors.New("ranking differs from apollo.Run on the same input")
	}
	return resp.Iterations, nil
}

var traceKey = []byte(`"traceID":"`)

// traceIDSpan locates the traceID value in a response body; ok is false
// when there is none.
func traceIDSpan(body []byte) (start, end int, ok bool) {
	i := bytes.Index(body, traceKey)
	if i < 0 {
		return 0, 0, false
	}
	start = i + len(traceKey)
	n := bytes.IndexByte(body[start:], '"')
	if n < 0 {
		return 0, 0, false
	}
	return start, start + n, true
}

// post serves one request body and returns the recorder and the duration
// of the ServeHTTP call.
func post(srv *httpapi.Server, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, "/v1/factfind", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	return rec, time.Since(start)
}

// newServer builds setupTrials servers and returns the last one with the
// median time a build took. Its flight recorder keeps every trace of a rep,
// so a traced rep can look them up once the drive is over.
func newServer() (*httpapi.Server, float64) {
	var srv *httpapi.Server
	setup, _ := timeSetup(setupTrials, func() error {
		srv = httpapi.New(httpapi.Options{Seed: serverSeed, Workers: serverWorkers, TraceBuffer: uniqueBodies})
		return nil
	})
	return srv, setup
}

// serveReadings are the registry values a traced rep differences.
type serveReadings struct {
	stages       map[string]histReading
	observe      histReading
	hits, misses float64
	totalAlloc   uint64
}

var apolloStages = []string{"ingest", "cluster", "build", "fit", "rank"}

func readServe(reg *obs.Registry) serveReadings {
	r := serveReadings{stages: map[string]histReading{}}
	for _, s := range apolloStages {
		r.stages[s] = readHist(reg, httpapi.MetricStageSeconds, obs.L("stage", s))
	}
	r.observe = readHist(reg, qual.MetricObserveSeconds)
	r.hits = reg.Counter(httpapi.MetricCacheHits, "").Value()
	r.misses = reg.Counter(httpapi.MetricCacheMisses, "").Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.totalAlloc = ms.TotalAlloc
	return r
}

// parallel calls f(0..n-1) from clients goroutines, each taking the next
// index when its previous call returns.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// drive is one closed-loop phase: send serves request i and returns its
// latency in ms.
func drive(n int, send func(i int) float64) (lat []float64, wall float64) {
	lat = make([]float64, n)
	start := time.Now()
	parallel(n, func(i int) { lat[i] = send(i) })
	return lat, time.Since(start).Seconds()
}

// frontDoorMS is a request's time outside the apollo stages its trace
// recorded: decoding, keying, the cache and encoding.
func frontDoorMS(srv *httpapi.Server, body []byte, spanMS float64) float64 {
	s, e, ok := traceIDSpan(body)
	if !ok {
		return math.NaN()
	}
	t, ok := srv.Flight().Get(string(body[s:e]))
	if !ok {
		return math.NaN()
	}
	for _, st := range t.Stages {
		spanMS -= float64(st.DurationNS) / 1e6
	}
	return spanMS
}

// serveLayers derives the per-layer values of one traced factfind rep.
func serveLayers(before, after serveReadings, frontDoor []float64, iters []float64, requests int) map[string]float64 {
	stage := func(s string) histReading { return after.stages[s].minus(before.stages[s]) }
	cl := stage("cluster")
	perRequest := 0.0
	if cl.count > 0 {
		perRequest = (stage("ingest").sum + cl.sum) / cl.count * 1000
	}
	hits, misses := after.hits-before.hits, after.misses-before.misses
	var fd []float64
	for _, v := range frontDoor {
		if !math.IsNaN(v) {
			fd = append(fd, v)
		}
	}
	sort.Float64s(fd)
	fdP50 := 0.0
	if len(fd) > 0 {
		fdP50 = percentile(fd, 50)
	}
	return map[string]float64{
		"depgraph.build_ms_mean":       stage("build").meanMS(),
		"core.fit_ms_mean":             stage("fit").meanMS(),
		"core.em_iters_mean":           mean(iters),
		"cluster.ms_per_request":       perRequest,
		"qual.observe_ms_mean":         after.observe.minus(before.observe).meanMS(),
		"httpapi.frontdoor_ms_p50":     fdP50,
		"httpapi.alloc_kb_per_request": float64(after.totalAlloc-before.totalAlloc) / 1024 / float64(requests),
		"serve.hits":                   hits,
		"serve.misses":                 misses,
	}
}

func runFactfindUnique(cfg config, o *outcome) error {
	bodies, err := makeBodies(uniqueBodies)
	if err != nil {
		return err
	}
	// The seed sets the order the bodies are sent in. Everything else is
	// indexed by body, so the checks and top_precision run in one order.
	order := randutil.New(cfg.seed).Perm(len(bodies))
	if err := recordGeneratorRSS(o); err != nil {
		return err
	}
	// repPrecision is each rep's mean top_precision over the bodies it
	// answered correctly.
	var repPrecision []float64
	reps, err := repeat(cfg, func(traced bool) (rep, error) {
		srv, setup := newServer()
		n := len(bodies)
		codes := make([]int, n)
		cache := make([]string, n)
		resps := make([][]byte, n)
		var before serveReadings
		if traced {
			before = readServe(srv.Metrics())
		}
		lat, wall := drive(n, func(i int) float64 {
			b := order[i]
			rec, d := post(srv, bodies[b].json)
			codes[b], cache[b], resps[b] = rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes()
			return float64(d) / float64(time.Millisecond)
		})
		var after serveReadings
		var frontDoor []float64
		if traced {
			after = readServe(srv.Metrics())
			for i, b := range order {
				frontDoor = append(frontDoor, frontDoorMS(srv, resps[b], lat[i]))
			}
		}

		o.attempted += n
		ok := 0
		var iters, precision []float64
		for i := range bodies {
			it, err := checkResponse(codes[i], resps[i], &bodies[i])
			if err == nil && cache[i] != "miss" {
				err = fmt.Errorf("X-Cache %q on a body sent once", cache[i])
			}
			if err != nil {
				o.fail("factfind-unique body %d: %v", i, err)
				continue
			}
			ok++
			iters = append(iters, float64(it))
			precision = append(precision, bodies[i].precision)
		}
		repPrecision = append(repPrecision, mean(precision))
		r := rep{setup: setup, ops: ok, wall: wall, lat: lat}
		if traced {
			r.layers = serveLayers(before, after, frontDoor, iters, n)
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	if err := recordPeakRSS(o); err != nil {
		return err
	}
	o.set("top_precision", median(repPrecision))
	return summarize(reps, o)
}
