package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"discopop"
	"discopop/internal/metrics"
	"discopop/internal/obs"
)

// server is one dp-serve subprocess on a loopback port of its own.
type server struct {
	cmd     *exec.Cmd
	url     string
	journal string
}

// children tracks the live dp-serve processes, so an interrupted run can
// stop them before it exits.
var children struct {
	sync.Mutex
	live map[*os.Process]struct{}
}

// killChildren kills every server still running (the interrupt path; a
// normal run drains them with stop).
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for p := range children.live {
		p.Kill()
		p.Wait()
	}
	children.live = nil
}

// buildServer compiles cmd/dp-serve from the checkout the benchmark runs
// in; the program under test is built from source, never taken from PATH.
func buildServer(buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "dp-serve")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/dp-serve").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/dp-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer boots dp-serve with two engine workers (so the numbers do
// not follow the host's CPU count), journaling on, defaults otherwise,
// and waits for the line that announces the resolved port: the listener is
// bound by then, so requests can be sent at once. peers makes it a
// coordinator.
func startServer(bin, dir, name, peers string) (*server, error) {
	s := &server{journal: filepath.Join(dir, name+".journal")}
	args := []string{"-addr", "127.0.0.1:0", "-jobs", "2", "-journal", s.journal}
	if peers != "" {
		args = append(args, "-peers", peers)
	}
	s.cmd = exec.Command(bin, args...)
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd.Stderr = logf
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*os.Process]struct{}{}
	}
	children.live[s.cmd.Process] = struct{}{}
	children.Unlock()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "dp-serve listening on "); ok {
				addr <- a
				break
			}
		}
		close(addr)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.cmd.Wait()
			return nil, fmt.Errorf("%s exited before listening (see %s)", name, logf.Name())
		}
		s.url = "http://" + a
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not announce its port within 20s", name)
	}
	return s, nil
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain outlasts its welcome.
func (s *server) stop() error {
	if s == nil || s.cmd.Process == nil {
		return nil
	}
	defer func() {
		children.Lock()
		delete(children.live, s.cmd.Process)
		children.Unlock()
	}()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("dp-serve at %s did not drain within 15s; killed", s.url)
	}
}

// fleet is the set of servers one run talks to: always a worker, and a
// coordinator in front of it when the run needs the hop.
type fleet struct {
	worker *server
	coord  *server
}

func startFleet(bin, dir string, withCoord bool) (*fleet, error) {
	f := &fleet{}
	var err error
	if f.worker, err = startServer(bin, dir, "worker", ""); err != nil {
		return nil, err
	}
	if withCoord {
		if f.coord, err = startServer(bin, dir, "coordinator", f.worker.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) servers() []*server {
	if f.coord != nil {
		return []*server{f.worker, f.coord}
	}
	return []*server{f.worker}
}

// stop stops every server and returns the first failure to drain.
func (f *fleet) stop() error {
	var first error
	for _, s := range f.servers() {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// peakRSS returns the servers' summed peak RSS in MB since the last call
// and restarts their peak accounting.
func (f *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, s := range f.servers() {
		mb, err := vmHWM(s.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
		resetHWM(s.cmd.Process.Pid)
	}
	return sum, nil
}

// scrape fetches and parses one server's /metrics, timing the request.
func scrape(c *http.Client, s *server) (*metrics.Scrape, time.Duration, error) {
	start := time.Now()
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	sc, err := metrics.Parse(resp.Body)
	return sc, time.Since(start), err
}

// counters sums every sample of each metric family over the fleet's
// servers: the form deltas are taken in.
type counters map[string]float64

func (f *fleet) counters(c *http.Client) (counters, []float64, error) {
	out := counters{}
	var times []float64
	for _, s := range f.servers() {
		sc, d, err := scrape(c, s)
		if err != nil {
			return nil, nil, fmt.Errorf("scrape %s: %w", s.url, err)
		}
		times = append(times, ms(d))
		for _, p := range sc.Points {
			out[p.Name] += p.Value
		}
	}
	return out, times, nil
}

// Request kinds of the generated traffic.
const (
	kindInline   = "inline"
	kindModule   = "module"
	kindWorkload = "workload"
)

// request is one generated submission.
type request struct {
	Kind string
	// Key identifies the payload: equal keys are equal payloads, which the
	// service may answer from its profile cache.
	Key  string
	Body []byte
	// What the generator knows about the right answer.
	Module  *poolEntry   // module payloads
	Kernels []kernelSpec // inline payloads
	Spec    string       // workload payloads: the name as submitted
}

// expectKey is a workload payload's key in expected.json: the service
// runs a bare name at scale 1.
func (r request) expectKey() string {
	if strings.Contains(r.Spec, "@") {
		return r.Spec
	}
	return r.Spec + "@1"
}

// poolEntry is one generated module of the seeded pool with its request
// body built once at set-up.
type poolEntry struct {
	Gen  *genModule
	Body []byte
	// Filled on first use by counts(): what a correct analysis reports.
	counted          bool
	instrs, accesses int64
}

func (p *poolEntry) counts() (instrs, accesses int64) {
	if !p.counted {
		p.instrs, p.accesses = countModule(p.Gen.Mod)
		p.counted = true
	}
	return p.instrs, p.accesses
}

// registryWorkloads are the bundled workloads the traffic names at scale 1
// (the default scale): small, so the service's fixed costs dominate.
var registryWorkloads = []string{"CG", "IS", "FT", "EP", "histogram", "rotate", "facedetection", "MG"}

// traffic is the seeded request generator. Every client draws from its own
// stream, so the schedule of client c is a pure function of (seed, c) and
// does not depend on how fast the other client runs.
type traffic struct {
	seed int64
	sz   sizing
	pool []*poolEntry
	// warm is a reserved tail of the pool that only the warm-up round uses.
	warm []*poolEntry
}

// newTraffic builds the module pool from the seed. The pool is larger than
// dp-serve's default 1024-entry profile cache, so hits, misses and LRU
// evictions all occur.
func newTraffic(seed int64, sz sizing) (*traffic, error) {
	t := &traffic{seed: seed, sz: sz}
	r := rand.New(rand.NewSource(seed))
	n := sz.poolSize + sz.warmModules
	all := make([]*poolEntry, n)
	for i := range all {
		g := buildModule(fmt.Sprintf("m%d_%d", seed, i), randKernels(r, sz.maxKernels, sz.minN, sz.maxN, true))
		enc, err := discopop.EncodeModule(g.Mod)
		if err != nil {
			return nil, fmt.Errorf("encode generated module %s: %w", g.Name, err)
		}
		body, err := json.Marshal(map[string]string{"module": base64.StdEncoding.EncodeToString(enc)})
		if err != nil {
			return nil, err
		}
		all[i] = &poolEntry{Gen: g, Body: body}
	}
	t.pool, t.warm = all[:sz.poolSize], all[sz.poolSize:]
	return t, nil
}

// inlineRequest builds an inline submission. The name is unique, so no two
// inline submissions are the same module even when their kernels agree.
func inlineRequest(name string, kernels []kernelSpec) request {
	type kernel struct {
		Pattern string `json:"pattern"`
		N       int    `json:"n"`
	}
	spec := struct {
		Name    string   `json:"name"`
		Kernels []kernel `json:"kernels"`
	}{Name: name}
	for _, k := range kernels {
		spec.Kernels = append(spec.Kernels, kernel{k.Pattern, k.N})
	}
	body, err := json.Marshal(map[string]any{"inline": spec})
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	return request{Kind: kindInline, Key: "inline:" + name, Body: body, Kernels: kernels}
}

func workloadRequest(spec string) request {
	body, err := json.Marshal(map[string]string{"workload": spec})
	if err != nil {
		panic(err)
	}
	return request{Kind: kindWorkload, Key: "workload:" + spec, Body: body, Spec: spec}
}

func moduleRequest(p *poolEntry) request {
	return request{Kind: kindModule, Key: "module:" + p.Gen.Name, Body: p.Body, Module: p}
}

// stream is one client's request sequence: 40 % always-distinct inline
// specs, 45 % module payloads drawn Zipf(s=1.1, v=64) from the pool, 15 %
// registry workload names. v=64 flattens the head enough that a run
// touches more than 1024 distinct modules and the cache evicts.
type stream struct {
	t      *traffic
	client int
	r      *rand.Rand
	zipf   *rand.Zipf
	n      int
}

func (t *traffic) stream(client int) *stream {
	r := rand.New(rand.NewSource(t.seed*1000003 + int64(client) + 1))
	return &stream{t: t, client: client, r: r,
		zipf: rand.NewZipf(r, 1.1, 64, uint64(len(t.pool)-1))}
}

func (s *stream) next() request {
	s.n++
	switch x := s.r.Float64(); {
	case x < 0.40:
		return inlineRequest(fmt.Sprintf("i%d_%d_%d", s.t.seed, s.client, s.n),
			randKernels(s.r, s.t.sz.maxKernels, s.t.sz.minN, s.t.sz.maxN, false))
	case x < 0.85:
		return moduleRequest(s.t.pool[s.zipf.Uint64()])
	default:
		return workloadRequest(registryWorkloads[s.r.Intn(len(registryWorkloads))])
	}
}

// warmup is the untimed round of a set-up: inline specs and the reserved
// modules, each module twice so the cache-hit path has run once too.
func (t *traffic) warmup(client, clients int) []request {
	var reqs []request
	r := rand.New(rand.NewSource(t.seed ^ 0x5eed + int64(client)))
	for i := 0; i < t.sz.warmInline/clients; i++ {
		reqs = append(reqs, inlineRequest(fmt.Sprintf("w%d_%d_%d", t.seed, client, i),
			randKernels(r, t.sz.maxKernels, t.sz.minN, t.sz.maxN, false)))
	}
	for pass := 0; pass < 2; pass++ {
		for i := client; i < len(t.warm); i += clients {
			reqs = append(reqs, moduleRequest(t.warm[i]))
		}
	}
	return reqs
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Instrs      int64   `json:"instrs"`
		Deps        int     `json:"deps"`
		CUs         int     `json:"cus"`
		CacheHit    bool    `json:"cache_hit"`
		ElapsedMS   float64 `json:"elapsed_ms"`
		QueueMS     float64 `json:"queue_ms"`
		Suggestions []struct {
			Kind string `json:"kind"`
			Loc  string `json:"loc"`
		} `json:"suggestions"`
		Spans []obs.Span `json:"spans"`
	} `json:"result"`
}

// jobRecord is one submission as the client saw it. The response body is
// kept raw during the measured phase and parsed afterwards.
type jobRecord struct {
	Req                 request
	Client              int
	ViaCoord            bool
	ID                  string
	T0, T1, T2          time.Time
	Err                 string
	Body                []byte
	ReqBytes, RespBytes int
	// Set by verifyJobs: the parsed result (nil for a failed job) and
	// whether the payload had completed before this job was submitted.
	View   *jobView
	Repeat bool
}

func (j *jobRecord) latency() time.Duration { return j.T2.Sub(j.T0) }

// client is one closed-loop client on one connection.
type client struct {
	id   int
	http *http.Client
}

func newClient(id int) *client {
	return &client{id: id, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// do submits one request and waits for its result: POST /v1/analyze, then
// GET /v1/jobs/{id}?wait=30s. Anything but a 202 followed by a body is an
// error on the record. traceID, when set, is sent as X-DP-Trace so the
// server's spans carry the benchmark's job identifier.
func (c *client) do(s *server, req request, traceID string) *jobRecord {
	rec := &jobRecord{Req: req, Client: c.id, ReqBytes: len(req.Body), T0: time.Now()}
	fail := func(format string, args ...any) *jobRecord {
		rec.Err = fmt.Sprintf(format, args...)
		if rec.T1.IsZero() {
			rec.T1 = time.Now()
		}
		rec.T2 = time.Now()
		return rec
	}
	hr, err := http.NewRequest(http.MethodPost, s.url+"/v1/analyze", bytes.NewReader(req.Body))
	if err != nil {
		return fail("build request: %v", err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		hr.Header.Set("X-DP-Trace", traceID)
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return fail("submit: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.T1 = time.Now()
	rec.RespBytes = len(body)
	if err != nil {
		return fail("read submit response: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fail("submit status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		return fail("malformed accept response %q", body)
	}
	rec.ID = acc.ID
	resp, err = c.http.Get(s.url + "/v1/jobs/" + acc.ID + "?wait=30s")
	if err != nil {
		return fail("wait: %v", err)
	}
	rec.Body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.T2 = time.Now()
	rec.RespBytes += len(rec.Body)
	if err != nil {
		return fail("read result: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail("wait status %d: %s", resp.StatusCode, bytes.TrimSpace(rec.Body))
	}
	return rec
}

// runClients drives the clients closed-loop against target until next
// returns false for them, and returns every record in completion order.
// Each client sends its next request only after the previous result
// arrived, so a slow system receives less load.
func runClients(clients []*client, target *server, viaCoord bool, next func(c *client) (request, string, bool)) []*jobRecord {
	var mu sync.Mutex
	var all []*jobRecord
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var mine []*jobRecord
			for {
				req, traceID, ok := next(c)
				if !ok {
					break
				}
				rec := c.do(target, req, traceID)
				rec.ViaCoord = viaCoord
				mine = append(mine, rec)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	sort.SliceStable(all, func(i, j int) bool { return all[i].T2.Before(all[j].T2) })
	return all
}

// runList sends fixed per-client request lists (warm-up, probes).
func runList(clients []*client, target *server, viaCoord bool, lists [][]request) []*jobRecord {
	pos := make([]int, len(clients))
	return runClients(clients, target, viaCoord, func(c *client) (request, string, bool) {
		if pos[c.id] >= len(lists[c.id]) {
			return request{}, "", false
		}
		pos[c.id]++
		return lists[c.id][pos[c.id]-1], "", true
	})
}

// runStreams sends the next n requests of each client's stream: a fixed
// stretch of the seeded schedule, however long the system takes over it.
func runStreams(clients []*client, target *server, viaCoord bool, streams []*stream, n int, traced bool) []*jobRecord {
	sent := make([]int, len(clients))
	return runClients(clients, target, viaCoord, func(c *client) (request, string, bool) {
		if sent[c.id] == n {
			return request{}, "", false
		}
		sent[c.id]++
		req := streams[c.id].next()
		traceID := ""
		if traced {
			traceID = fmt.Sprintf("c%d-%d", c.id, streams[c.id].n)
		}
		return req, traceID, true
	})
}

// verifyJobs parses every record and checks it: the job must have been
// accepted and finished as done, an inline job must not be a cache hit,
// and a job whose executed-statement count the benchmark knows (generated
// modules by a local run, registry workloads from expected.json) must
// report exactly that count. It also classifies jobs as fresh or repeat by
// the generator's own history, which the caller keeps across phases: a
// repeat is a payload that had completed before this job was submitted.
func verifyJobs(jobs []*jobRecord, exp expectations, completed map[string]time.Time, p *problems) {
	for _, j := range jobs {
		if j.Err != "" {
			p.fail("%s job %s: %s", j.Req.Kind, j.Req.Key, j.Err)
			continue
		}
		j.View = &jobView{}
		if err := json.Unmarshal(j.Body, j.View); err != nil {
			p.fail("job %s: malformed result: %v", j.ID, err)
			j.View = nil
			continue
		}
		if j.View.State != "done" || j.View.Result == nil {
			p.fail("job %s (%s): state %q error %q", j.ID, j.Req.Key, j.View.State, j.View.Error)
			j.View = nil
			continue
		}
		res := j.View.Result
		switch j.Req.Kind {
		case kindInline:
			if res.CacheHit {
				p.fail("inline job %s reported a cache hit", j.ID)
			}
		case kindModule:
			if want, _ := j.Req.Module.counts(); res.Instrs != want {
				p.fail("module job %s (%s): %d instrs, want %d", j.ID, j.Req.Key, res.Instrs, want)
			}
		case kindWorkload:
			if want, ok := exp[j.Req.expectKey()]; ok && (res.Instrs != want.Instrs || res.Deps != want.Deps) {
				p.fail("workload job %s (%s): %d instrs %d deps, want %d and %d",
					j.ID, j.Req.Spec, res.Instrs, res.Deps, want.Instrs, want.Deps)
			}
		}
		done, seen := completed[j.Req.Key]
		j.Repeat = seen && done.Before(j.T0)
		if !seen {
			completed[j.Req.Key] = j.T2
		}
	}
}

// profileStage is how long the job's profile stage ran, from the span tree
// every result carries. On a coordinator the stage spans are the worker's,
// grafted in.
func (v *jobView) profileStage() time.Duration {
	var d time.Duration
	for _, s := range v.Result.Spans {
		if s.Name == "profile" {
			d += time.Duration(s.Dur)
		}
	}
	return d
}

// kindsOf indexes a result's suggestions by loop location; like
// loopKinds, a loop classification wins over a task suggestion there.
func (v *jobView) kindsOf() map[string]string {
	kinds := map[string]string{}
	for _, s := range v.Result.Suggestions {
		if _, seen := kinds[s.Loc]; !seen || s.Kind != "MPMD-task" {
			kinds[s.Loc] = s.Kind
		}
	}
	return kinds
}

// truthOfJobs scores every verified job against what the generator knows:
// module jobs loop by loop, inline jobs by count per kind, registry
// workloads by the registry's ground truth.
func truthOfJobs(jobs []*jobRecord, registry map[string][]genLoop) (matched, labelled int) {
	for _, j := range jobs {
		if j.View == nil {
			continue
		}
		switch j.Req.Kind {
		case kindModule:
			m, l := matchLoops(j.Req.Module.Gen.Loops, j.View.kindsOf())
			matched, labelled = matched+m, labelled+l
		case kindWorkload:
			m, l := matchLoops(registry[j.Req.Spec], j.View.kindsOf())
			matched, labelled = matched+m, labelled+l
		case kindInline:
			var wantD, wantR, wantN, gotD, gotR int
			for _, k := range j.Req.Kernels {
				d, r, n := inlineLoops(k.Pattern)
				wantD, wantR, wantN = wantD+d, wantR+r, wantN+n
			}
			for _, s := range j.View.Result.Suggestions {
				switch s.Kind {
				case labelDOALL:
					gotD++
				case labelReduction:
					gotR++
				}
			}
			// Loops reported parallel beyond the expected count are
			// sequential loops misreported.
			extra := max(gotD-wantD, 0) + max(gotR-wantR, 0)
			matched += min(gotD, wantD) + min(gotR, wantR) + max(wantN-extra, 0)
			labelled += wantD + wantR + wantN
		}
	}
	return matched, labelled
}

// serviceStats derives the service-path per-layer metrics from verified
// job records.
func serviceStats(jobs []*jobRecord, out map[string]float64) {
	var submit, wait, queue, profile, post, hop, reqB, respB, spans []float64
	for _, j := range jobs {
		if j.View == nil {
			continue
		}
		res := j.View.Result
		submit = append(submit, ms(j.T1.Sub(j.T0)))
		wait = append(wait, ms(j.T2.Sub(j.T1)))
		queue = append(queue, res.QueueMS)
		reqB = append(reqB, float64(j.ReqBytes))
		respB = append(respB, float64(j.RespBytes))
		spans = append(spans, float64(len(res.Spans)))
		var rest, workerTime time.Duration
		for _, s := range res.Spans {
			switch s.Name {
			case "build-pet", "build-cus", "discover", "rank":
				rest += time.Duration(s.Dur)
			case "job", "queue":
				// A worker's spans carry its URL as their node.
				if s.Node != "" {
					workerTime += time.Duration(s.Dur)
				}
			}
		}
		profile = append(profile, ms(j.View.profileStage()))
		post = append(post, us(rest))
		if j.ViaCoord && workerTime > 0 {
			hop = append(hop, ms(j.latency()-workerTime))
		}
	}
	out["server.submit_p50_ms"] = median(submit)
	out["server.wait_p50_ms"] = median(wait)
	out["server.request_bytes"] = mean(reqB)
	out["server.response_bytes"] = mean(respB)
	out["pipeline.queue_p50_ms"] = median(queue)
	out["pipeline.stage_profile_p50_ms"] = median(profile)
	out["pipeline.stage_post_p50_us"] = median(post)
	out["remote.hop_p50_ms"] = median(hop)
	out["obs.spans_per_job"] = mean(spans)
}

// fetchTraces times GET /v1/jobs/{id}/trace for the most recent jobs the
// server still holds.
func fetchTraces(c *http.Client, s *server, jobs []*jobRecord, n int) ([]float64, error) {
	var times []float64
	for i := len(jobs) - 1; i >= 0 && len(times) < n; i-- {
		if jobs[i].View == nil {
			continue
		}
		start := time.Now()
		resp, err := c.Get(s.url + "/v1/jobs/" + jobs[i].ID + "/trace")
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("trace of job %s: status %d", jobs[i].ID, resp.StatusCode)
		}
		times = append(times, ms(time.Since(start)))
	}
	return times, nil
}
