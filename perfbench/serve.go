package main

// serve-memo: an in-process serve.Server behind a loopback listener, fresh
// cache and journal directories in the sandbox, and closed-loop clients
// submitting a seeded stream of small sweep jobs over HTTP. Most jobs repeat
// one of the hot jobs, which together cover the SPEC kernels and whose
// cells are memo hits; one job in every serveBlock per client is fresh, so
// memo Put and journal appends run beside the Gets.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/runner"
	"invisispec/internal/serve"
	"invisispec/internal/workload"
)

const (
	serveWarmup  = 1000
	serveMeasure = 4000
	serveGroup   = 4    // SPEC kernels per hot job
	serveBlock   = 1024 // one job in each block of this many is fresh
	pollStep     = time.Millisecond
	// sliceJobs is the fewest jobs a slice of the window holds, so that
	// each slice's p90 rests on enough samples (see percentile).
	sliceJobs = 200
)

// server is one running job server on a loopback port.
type server struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error // Serve's return value
}

func startServer(dir string, workers int) (*server, error) {
	journal := filepath.Join(dir, "journal")
	if err := os.MkdirAll(journal, 0o755); err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Options{Workers: workers, CacheDir: filepath.Join(dir, "cache"), JournalDir: journal})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.Drain(context.Background()))
	}
	sv := &server{srv: s, http: &http.Server{Handler: s.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { sv.done <- sv.http.Serve(ln) }()
	for i := 0; ; i++ {
		resp, err := http.Get(sv.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		if i == 200 {
			return nil, errors.Join(fmt.Errorf("job server never became healthy"), sv.stop())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop closes the listener, drains the server and waits for Serve to end.
func (sv *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sv.http.Shutdown(ctx)
	if serr := <-sv.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, sv.srv.Drain(ctx))
}

// jobStream is the submission stream. Its jobs are the same at every seed:
// a job's cost depends on its kernel, so a seed-picked subset of kernels
// would move the figures from seed to seed. The seed only picks the order
// in which the clients submit them.
type jobStream struct {
	// hot cuts the SPEC kernels, in suite order, into runs of serveGroup;
	// each job sweeps its kernels × every defense × TSO and RC.
	hot []serve.JobRequest
	// fresh lists the SPEC kernels in suite order.
	fresh []string
}

func newJobStream() *jobStream {
	js := &jobStream{fresh: workload.SuiteNames(false)}
	for i := 0; i < len(js.fresh); i += serveGroup {
		ws := js.fresh[i:min(i+serveGroup, len(js.fresh))]
		js.hot = append(js.hot, sweepRequest(ws, []string{"TSO", "RC"}, nil))
	}
	return js
}

func sweepRequest(ws, cms []string, seeds []int64) serve.JobRequest {
	return serve.JobRequest{Type: serve.TypeSweep, Name: "perfbench", Workloads: ws,
		Consistency: cms, Seeds: seeds, Warmup: serveWarmup, Measure: serveMeasure, Kernel: "fast"}
}

// requestCells is a sweep job's cell count.
func requestCells(r serve.JobRequest) int {
	return len(r.Workloads) * len(r.Consistency) * len(config.AllDefenses()) * max(len(r.Seeds), 1)
}

// client yields one closed-loop client's jobs.
type client struct {
	js        *jobStream
	rng       *rand.Rand
	id, n     int
	k         int // jobs issued
	freshPos  int // fresh slot of the current block
	freshSent int
}

func (js *jobStream) client(seed int64, id, n int) *client {
	return &client{js: js, rng: rand.New(rand.NewSource(seed*7919 + int64(id) + 1)), id: id, n: n}
}

// next returns the client's next job and whether it is a fresh one.
func (c *client) next() (serve.JobRequest, bool) {
	if c.k%serveBlock == 0 {
		c.freshPos = c.rng.Intn(serveBlock)
	}
	pos := c.k % serveBlock
	c.k++
	if pos == c.freshPos {
		// A fault seed no other job uses makes every cell a new memo key.
		fs := int64(1 + c.id + c.n*c.freshSent)
		w := c.js.fresh[(c.id+c.n*c.freshSent)%len(c.js.fresh)]
		c.freshSent++
		return sweepRequest([]string{w}, []string{"TSO"}, []int64{fs}), true
	}
	return c.js.hot[c.rng.Intn(len(c.js.hot))], false
}

// jobTiming is one job's phases. total runs from the submit until the
// server finished the job, plus the artifact fetch: the client's own
// polling lag is left out of it (see runJob).
type jobTiming struct {
	total, submit, poll, artifact time.Duration
	cells                         int           // cells the job returned
	fresh                         bool          // a fresh job: its cells miss the memo
	at                            time.Duration // completion, from the window's start
	key                           [32]byte      // hash of the job body
}

// httpClient drives the job API over keep-alive connections.
type httpClient struct {
	c        *http.Client
	base     string
	requests int
	failed   int
}

func (h *httpClient) do(method, path string, body []byte) ([]byte, error) {
	h.requests++
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		h.failed++
		return nil, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		h.failed++
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, out)
	}
	if err != nil {
		h.failed++
		return nil, err
	}
	return out, nil
}

// runJob submits one job, polls it to completion and fetches its artifact.
//
// The job's latency is taken from the submit to the finish time the server
// records in the job's status, plus the artifact fetch. The poll loop only
// learns of the finish at its next poll, up to a step later, and how much
// later depends on timer wakeups on the host, not on the server: counted
// in, it let a slightly slower host move whole jobs past one more poll.
func (h *httpClient) runJob(body []byte) ([]byte, jobTiming, error) {
	var t jobTiming
	t0 := time.Now()
	raw, err := h.do("POST", "/api/v1/jobs", body)
	if err != nil {
		return nil, t, err
	}
	t.submit = time.Since(t0)
	var st struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		Error    string `json:"error"`
		Finished string `json:"finished"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, t, err
	}
	t1 := time.Now()
	for st.State != string(serve.StateDone) {
		if st.State == string(serve.StateFailed) || st.State == string(serve.StateInterrupted) {
			return nil, t, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(pollStep)
		if raw, err = h.do("GET", "/api/v1/jobs/"+st.ID, nil); err != nil {
			return nil, t, err
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, t, err
		}
	}
	t2 := time.Now()
	t.poll = t2.Sub(t1)
	finished, err := time.Parse(time.RFC3339Nano, st.Finished)
	if err != nil {
		return nil, t, fmt.Errorf("job %s: finish time: %w", st.ID, err)
	}
	art, err := h.do("GET", "/api/v1/jobs/"+st.ID+"/artifact", nil)
	t.artifact = time.Since(t2)
	// The job is done for the client once the server has finished it and
	// the submit has returned. The finish time is wall-clock time; keeping
	// it before the poll that saw it guards against a clock step.
	done := min(max(finished.Sub(t0), t.submit), t2.Sub(t0))
	t.total = done + t.artifact
	return art, t, err
}

// served is what one window observed.
type served struct {
	wall      time.Duration
	timings   []jobTiming
	artifacts map[[32]byte][]byte           // first artifact per job body
	reqs      map[[32]byte]serve.JobRequest // distinct job bodies
	instr     map[[32]byte]float64          // simulated instructions behind one job
	requests  int
	failed    int
	mismatch  int // repeat submissions whose artifact differed
	errs      []error
}

// runWindow runs the closed-loop clients against sv for d.
func runWindow(e *env, sv *server, js *jobStream, d time.Duration) *served {
	out := &served{artifacts: map[[32]byte][]byte{}, reqs: map[[32]byte]serve.JobRequest{},
		instr: map[[32]byte]float64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for id := 0; id < e.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := js.client(e.seed, id, e.workers)
			h := &httpClient{c: &http.Client{}, base: sv.base}
			for time.Now().Before(deadline) {
				req, fresh := cl.next()
				body, err := json.Marshal(req)
				if err != nil {
					panic(err) // a JobRequest always marshals
				}
				art, t, err := h.runJob(body)
				t.cells, t.fresh, t.at = requestCells(req), fresh, time.Since(t0)
				t.key = sha256.Sum256(body)
				key := t.key
				mu.Lock()
				if err != nil {
					out.errs = append(out.errs, err)
				} else {
					out.timings = append(out.timings, t)
					if prev, ok := out.artifacts[key]; !ok {
						out.artifacts[key], out.reqs[key] = art, req
					} else if !bytes.Equal(prev, art) {
						out.mismatch++
					}
				}
				mu.Unlock()
			}
			mu.Lock()
			out.requests += h.requests
			out.failed += h.failed
			mu.Unlock()
			h.c.CloseIdleConnections()
		}(id)
	}
	wg.Wait()
	out.wall = time.Since(t0)
	return out
}

// warm submits every hot job once so the window starts with a warm memo.
func warm(sv *server, js *jobStream) error {
	h := &httpClient{c: &http.Client{}, base: sv.base}
	defer h.c.CloseIdleConnections()
	for _, req := range js.hot {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		if _, _, err := h.runJob(body); err != nil {
			return err
		}
	}
	return nil
}

// directArtifact computes a sweep job's artifact on the direct campaign
// path (runner.Matrix → campaign.JobCells → campaign.Run → runner.NewBench
// → runner.WriteBenchJSON), traced when tr is non-nil.
func directArtifact(e *env, req serve.JobRequest, tr *tracer) ([]byte, *passResult, error) {
	cms, err := config.ParseConsistencies(req.Consistency)
	if err != nil {
		return nil, nil, err
	}
	jobs := runner.Matrix(req.Workloads, req.Parsec, cms, config.AllDefenses(), req.Seeds, req.Warmup, req.Measure)
	pr, err := runPass(e, req.Name, jobs, tr)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := runner.WriteBenchJSON(&buf, pr.bench); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), pr, nil
}

// checkServed compares every distinct job's served artifact with the direct
// path and returns the untraced passes it ran. With a tracer it checks each
// job twice, untraced and traced, in alternating order so host drift falls
// on both alike, and also returns the traced passes.
func checkServed(e *env, out *served, tr *tracer) (untraced, traced []*passResult, err error) {
	var first error
	i := 0
	for key, art := range out.artifacts {
		order := []*tracer{nil}
		if tr != nil {
			order = [][]*tracer{{nil, tr}, {tr, nil}}[i%2]
		}
		i++
		for _, t := range order {
			want, pr, err := directArtifact(e, out.reqs[key], t)
			if err != nil {
				return nil, nil, err
			}
			if t == nil {
				untraced = append(untraced, pr)
			} else {
				traced = append(traced, pr)
			}
			if !bytes.Equal(art, want) && first == nil {
				first = fmt.Errorf("job %s: served artifact differs from the direct campaign path", requestLabel(out.reqs[key]))
			}
			out.instr[key] = simInstructions(pr.results)
		}
	}
	if out.mismatch > 0 && first == nil {
		first = fmt.Errorf("%d repeat submissions returned a different artifact", out.mismatch)
	}
	return untraced, traced, first
}

// windowCells is the number of cells the window's jobs returned.
func windowCells(out *served) int {
	n := 0
	for _, t := range out.timings {
		n += t.cells
	}
	return n
}

func requestLabel(r serve.JobRequest) string {
	return fmt.Sprintf("%v/%v/seeds=%v", r.Workloads, r.Consistency, r.Seeds)
}

func runServeWorkload(e *env) (result, error) {
	// Every set-up starts a server; all but the last are stopped after the
	// timed set-ups, so no set-up includes tearing one down.
	var servers []*server
	setup, err := e.timeSetup(func() error {
		sv, err := startServer(filepath.Join(e.sandbox, "server-"+strconv.Itoa(len(servers)+1)), e.workers)
		if err == nil {
			servers = append(servers, sv)
		}
		return err
	})
	var sv *server
	if err == nil {
		sv, servers = servers[len(servers)-1], servers[:len(servers)-1]
	}
	for _, s := range servers {
		err = errors.Join(err, s.stop())
	}
	if err != nil {
		if sv != nil {
			err = errors.Join(err, sv.stop())
		}
		return result{}, err
	}
	js := newJobStream()
	if e.trace {
		return traceServe(e, sv, js)
	}
	err = warm(sv, js)
	var out *served
	if err == nil {
		out = runWindow(e, sv, js, e.seconds)
	}
	if serr := sv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return result{}, err
	}
	_, _, cerr := checkServed(e, out, nil)
	failed := out.failed + len(out.errs)
	correct := cerr == nil && failed == 0
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve-memo check failed: %v\n", cerr)
	}
	for _, err := range out.errs {
		fmt.Fprintf(os.Stderr, "perfbench: serve-memo job failed: %v\n", err)
	}
	if len(out.timings) == 0 {
		return result{}, errors.New("serve-memo: no job completed in the window")
	}
	jobs, cells, instr, slices := sliceRates(out)
	jobP50, jobP90, err := sliceLatency(out, "job_ms", func(t jobTiming) float64 { return msOf(t.total) })
	if err != nil {
		return result{}, err
	}
	// A client sees a cell's cost as its job's latency over the job's cells.
	cellP50, cellP90, err := sliceLatency(out, "cell_ms", func(t jobTiming) float64 { return msOf(t.total) / float64(t.cells) })
	if err != nil {
		return result{}, err
	}
	n := len(out.timings)
	ms := newMetrics()
	ms.set("setup_s", "s", setup.Seconds(), setupRuns)
	ms.set("cells_per_s", "1/s", cells, slices)
	ms.set("cell_ms_p50", "ms", cellP50, n)
	ms.set("cell_ms_p90", "ms", cellP90, n)
	ms.set("jobs_per_s", "1/s", jobs, slices)
	ms.set("job_ms_p50", "ms", jobP50, n)
	ms.set("job_ms_p90", "ms", jobP90, n)
	ms.set("sim_minstr_per_s", "Minstr/s", instr/1e6, slices)
	if ms.err != nil {
		return result{}, ms.err
	}
	return result{Correct: correct, Attempted: out.requests, Failed: failed, Metrics: ms.m}, nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windowSlices splits the window's jobs, in completion order, into one
// slice per second of the window, or fewer so that each holds at least
// sliceJobs jobs. A fresh job holds both server workers for a tenth of a
// second, and the host loses such stretches to other guests too; the
// median slice of the mix is steadier than the whole window.
func windowSlices(out *served) [][]jobTiming {
	ts := append([]jobTiming(nil), out.timings...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].at < ts[j].at })
	n := min(max(int(out.wall/time.Second), 1), max(len(ts)/sliceJobs, 1))
	slices := make([][]jobTiming, n)
	for i := range slices {
		slices[i] = ts[i*len(ts)/n : (i+1)*len(ts)/n]
	}
	return slices
}

// sliceRates returns the median slice's rates of jobs, of their cells and
// of the simulated instructions they delivered (every returned cell's, memo
// hits included), and the slice count.
func sliceRates(out *served) (jobs, cells, instr float64, n int) {
	var js, cs, is []float64
	var from time.Duration
	slices := windowSlices(out)
	for _, slice := range slices {
		to := slice[len(slice)-1].at
		span := (to - from).Seconds()
		from = to
		var c, in float64
		for _, t := range slice {
			c += float64(t.cells)
			in += out.instr[t.key]
		}
		js = append(js, float64(len(slice))/span)
		cs = append(cs, c/span)
		is = append(is, in/span)
	}
	return median(js), median(cs), median(is), len(slices)
}

// sliceLatency returns the median over the window's slices of each
// slice's p50 and p90 of f. Every slice must hold enough jobs for its p90
// (see percentile).
func sliceLatency(out *served, name string, f func(jobTiming) float64) (p50, p90 float64, err error) {
	var p50s, p90s []float64
	for i, slice := range windowSlices(out) {
		xs := make([]float64, len(slice))
		for j, t := range slice {
			xs[j] = f(t)
		}
		v, err := percentile(xs, 0.9)
		if err != nil {
			return 0, 0, fmt.Errorf("%s_p90 of slice %d: %w", name, i, err)
		}
		p50s, p90s = append(p50s, median(xs)), append(p90s, v)
	}
	return median(p50s), median(p90s), nil
}

// traceServe runs half the time on the live server (the GC baseline), then
// half on a fresh one with the server's counters sampled. Both windows are
// untraced: the spans come from the direct-path check of the second
// window, run once untraced (the overhead baseline) and once through the
// traced cell bodies.
func traceServe(e *env, sv *server, js *jobStream) (result, error) {
	half := e.seconds / 2
	gc0 := readGC()
	err := warm(sv, js)
	var ref *served
	if err == nil {
		ref = runWindow(e, sv, js, half)
	}
	gc1 := readGC()
	if serr := sv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return result{}, err
	}
	if sv, err = startServer(filepath.Join(e.sandbox, "server-traced"), e.workers); err != nil {
		return result{}, err
	}
	err = warm(sv, js)
	m0 := sv.srv.Metrics()
	var (
		out *served
		sl  = &serveLayer{}
	)
	if err == nil {
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			var busy, samples float64
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					sl.busyMean = ratio(busy, samples)
					return
				case <-tick.C:
					m := sv.srv.Metrics()
					sl.queueMax = max(sl.queueMax, m.QueueDepth)
					busy += float64(m.WorkersBusy)
					samples++
				}
			}
		}()
		out = runWindow(e, sv, js, half)
		close(stop)
		<-sampled
	}
	m1 := sv.srv.Metrics()
	if serr := sv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return result{}, err
	}
	hits, misses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	sl.hitRatio = ratio(float64(hits), float64(hits+misses))
	sl.misses = misses
	sl.flightHits = m1.Cache.FlightHits - m0.Cache.FlightHits
	sl.bytes = m1.Cache.Bytes
	var all, fresh float64
	for _, t := range out.timings {
		sl.submit = append(sl.submit, float64(t.submit.Nanoseconds())/1e6)
		sl.poll = append(sl.poll, float64(t.poll.Nanoseconds())/1e6)
		sl.artifact = append(sl.artifact, float64(t.artifact.Nanoseconds())/1e6)
		ms := float64(t.total.Nanoseconds()) / 1e6
		all += ms
		if t.fresh {
			sl.freshJob = append(sl.freshJob, ms)
			fresh += ms
		}
	}
	sl.freshShare = ratio(fresh, all)

	// Both windows' artifacts are checked against the direct path; the
	// second window's both untraced and traced, so the traced cells are
	// proven byte-identical to the untraced entry point and the two checks
	// time the same cells.
	_, _, cerr := checkServed(e, ref, nil)
	tr := newTracer()
	untraced, passes, err := checkServed(e, out, tr)
	if cerr = errors.Join(cerr, err); cerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve-memo check failed: %v\n", cerr)
	}
	cms, _ := config.ParseConsistencies(js.hot[0].Consistency)
	probe, err := sweepProbe(runner.Matrix(js.hot[0].Workloads, false, cms, config.AllDefenses(), nil, serveWarmup, serveMeasure))
	if err != nil {
		return result{}, err
	}
	lm := layerMetrics{tr: tr, workers: e.workers, serve: sl, gc: gc1.sub(gc0), gcCells: windowCells(ref),
		body: map[string]time.Duration{}, probe: probe}
	for _, pr := range passes {
		lm.counts.merge(pr.counts)
		lm.outcomes = append(lm.outcomes, pr.outcomes...)
		lm.poolWall += pr.wall
		for k, v := range pr.body {
			lm.body[k] = v
		}
	}
	lm.wall = lm.poolWall
	for _, pr := range untraced {
		lm.refWall += pr.wall
	}
	ms := lm.report()
	lm.printShares(os.Stdout)
	if ms.err != nil {
		return result{}, ms.err
	}
	if _, err := tr.write(e.traceDir(), "serve-memo.jsonl"); err != nil {
		return result{}, err
	}
	failed := ref.failed + out.failed + len(ref.errs) + len(out.errs)
	return result{Correct: cerr == nil && failed == 0 && ref.mismatch == 0, Attempted: ref.requests + out.requests,
		Failed: failed, Metrics: ms.m}, nil
}
