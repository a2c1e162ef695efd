package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unimem"
	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/exp"
	"unimem/internal/machine"
	"unimem/internal/scenario"
	"unimem/internal/serve"
	"unimem/internal/workloads"
	"unimem/internal/xrand"
)

// The serve workload: POST /run requests against a local unimem-serve
// process, sent from this process over at most two connections. An
// open-loop stream of the mix at a fixed rate, in segments with
// closed-loop bursts of the working set between them, then a rate ladder
// for the highest rate that meets the latency limit.

const (
	conns       = 2   // client connections (the machine's CPU count)
	streamRate  = 50  // requests per second of the timed stream
	limitMS     = 100 // latency limit on the tail
	burstMisses = 6   // fresh misses per closed-loop burst (a serve "pass")
	ladderProbe = 300 // closed-loop requests that measure saturated throughput
	rounds      = 4   // stream segments, each followed by bursts
	popSize     = 48  // cached baseline jobs warmed during set-up
	poolSize    = 48  // Unimem scenarios the exec class draws from
	serveSetups = 3
)

// mixBlock is the class of each request in a block of the mix, shuffled
// per block so that every stretch of the stream carries the same work
// whatever the seed. The block and the stream rate have the shape of the
// unimem-loadgen replay the repository documents (README, and the CI
// cluster smoke: -scenarios 2 -qps 50 -requests 40): 40 requests at 50
// req/s cycling over 12 scenario bodies, that is 28 repeats that hit the
// run cache and 12 first touches that execute. The 12 executions are
// spread evenly over the server's four strategies: Unimem's 3 are execs
// (never cached), the three baselines' 9 are misses (executed, then
// inserted).
var mixBlock = blockOf(28, 3, 9)

func blockOf(counts ...int) []int {
	var b []int
	for class, n := range counts {
		for i := 0; i < n; i++ {
			b = append(b, class)
		}
	}
	return b
}

const (
	classHit = iota
	classExec
	classMiss
)

var className = []string{"hit", "exec", "miss"}

// servePlatforms are the platforms requests name, with the machine the
// server resolves each to.
var servePlatforms = []struct {
	spec serve.PlatformSpec
	mach func() *machine.Machine
}{
	{serve.PlatformSpec{Name: "a", NVMLatencyFactor: 4}, func() *machine.Machine { return machine.PlatformA().WithNVMLatencyFactor(4) }},
	{serve.PlatformSpec{Name: "hbm-ddr-nvm"}, machine.PlatformHBMDDRNVM},
}

var baselines = []string{"hint-density", "fastest-only", "xmem"}

// sreq is one /run request of the mix.
type sreq struct {
	class    int
	plat     int
	strategy string
	spec     *scenario.Spec // as the server decodes it
	w        *workloads.Workload
	body     []byte
	arch     scenario.Archetype // generator input of spec
	specSeed uint64
}

// corpus generates the request mix from the seed. Population and pool
// entries are drawn round-robin.
type corpus struct {
	base                uint64
	pop, pool           []*sreq
	hits, execs, misses int
	block               []int // classes left in the current block
	rng                 *xrand.RNG
}

func newCorpus(seed uint64) (*corpus, error) {
	c := &corpus{base: seed << 20, rng: xrand.New(seed ^ 0x5E12E)}
	archs := scenario.Archetypes()
	for i := 0; i < popSize; i++ {
		q, err := makeReq(classHit, archs[i%len(archs)], c.base+uint64(i), i%2, baselines[i%len(baselines)])
		if err != nil {
			return nil, err
		}
		c.pop = append(c.pop, q)
	}
	for i := 0; i < poolSize; i++ {
		q, err := makeReq(classExec, archs[i%len(archs)], c.base+1000+uint64(i), (i/len(archs))%2, "unimem")
		if err != nil {
			return nil, err
		}
		c.pool = append(c.pool, q)
	}
	return c, nil
}

func makeReq(class int, a scenario.Archetype, specSeed uint64, plat int, strategy string) (*sreq, error) {
	spec, err := scenario.Generate(a, specSeed)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.RunRequest{
		Platform: servePlatforms[plat].spec,
		JobReq:   serve.JobReq{Workload: serve.WorkloadReq{Scenario: spec}, Strategy: strategy},
	})
	if err != nil {
		return nil, err
	}
	var back serve.RunRequest
	if err := json.Unmarshal(body, &back); err != nil {
		return nil, err
	}
	return &sreq{class: class, plat: plat, strategy: strategy, arch: a, specSeed: specSeed,
		spec: back.Workload.Scenario, body: body}, nil
}

// next draws the next request of the mix.
func (c *corpus) next() (*sreq, error) {
	if len(c.block) == 0 {
		for _, i := range c.rng.Perm(len(mixBlock)) {
			c.block = append(c.block, mixBlock[i])
		}
	}
	class := c.block[0]
	c.block = c.block[1:]
	switch class {
	case classHit:
		c.hits++
		return c.pop[(c.hits-1)%len(c.pop)], nil
	case classExec:
		c.execs++
		return c.pool[(c.execs-1)%len(c.pool)], nil
	}
	return c.miss()
}

// miss makes a request for a scenario no earlier request named.
func (c *corpus) miss() (*sreq, error) {
	k := c.misses
	c.misses++
	archs := scenario.Archetypes()
	return makeReq(classMiss, archs[k%len(archs)], c.base+100000+uint64(k), k%2, baselines[k%len(baselines)])
}

// burst is one serve pass: every population and pool job once plus
// burstMisses fresh misses, in a seeded order. Its work is the same from
// burst to burst.
func (c *corpus) burst() ([]*sreq, error) {
	out := append(append([]*sreq(nil), c.pop...), c.pool...)
	for i := 0; i < burstMisses; i++ {
		q, err := c.miss()
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	perm := c.rng.Perm(len(out))
	shuffled := make([]*sreq, len(out))
	for i, j := range perm {
		shuffled[i] = out[j]
	}
	return shuffled, nil
}

func (c *corpus) take(n int) ([]*sreq, error) {
	out := make([]*sreq, n)
	for i := range out {
		q, err := c.next()
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// server process

type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	debug  string // pprof listener
	client *http.Client
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches unimem-serve and waits until /healthz answers.
func startServer(bin string, seed uint64) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dbg, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-debug-addr", dbg, "-log-level", "error",
		"-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, debug: "http://" + dbg, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	for deadline := time.Now().Add(20 * time.Second); ; {
		if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("unimem-serve did not become healthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is fine
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of a terminated server is not informative
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.client.CloseIdleConnections()
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

// shot is one sent request: due is when it was scheduled, start when a
// connection took it.
type shot struct {
	q                *sreq
	due, start, done time.Time
	resp             serve.RunResponse
	err              error
}

func (s *server) post(q *sreq) (serve.RunResponse, error) {
	var rr serve.RunResponse
	resp, err := s.client.Post(s.base+"/run", "application/json", bytes.NewReader(q.body))
	if err != nil {
		return rr, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return rr, err
	}
	if resp.StatusCode != http.StatusOK {
		return rr, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return rr, json.Unmarshal(b, &rr)
}

// send issues reqs over nconn connections. With rate > 0 request i
// is due at start + i/rate (open loop); with rate 0 all are due at once
// (closed loop). Latency is measured from the due time.
type sendStats struct {
	shots      []shot
	wall       time.Duration
	lateMax    time.Duration // how late the generator dispatched
	backlogMax int           // requests due but waiting for a connection
}

func (s *server) send(reqs []*sreq, rate float64, nconn int) sendStats {
	st := sendStats{shots: make([]shot, len(reqs))}
	work := make(chan int, len(reqs)) // one slot per request: the generator never blocks
	var started atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nconn; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				started.Add(1)
				sh := &st.shots[i]
				sh.start = time.Now()
				sh.resp, sh.err = s.post(sh.q)
				sh.done = time.Now()
			}
		}()
	}
	t0 := time.Now().Add(5 * time.Millisecond)
	for i, q := range reqs {
		due := t0
		if rate > 0 {
			due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		}
		st.shots[i].q, st.shots[i].due = q, due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > st.lateMax {
			st.lateMax = late
		}
		work <- i
		if b := i + 1 - int(started.Load()); b > st.backlogMax {
			st.backlogMax = b
		}
	}
	close(work)
	wg.Wait()
	st.wall = time.Since(t0)
	return st
}

// serviceTimes are the latencies of a class's requests from the moment a
// connection took each: in a closed loop over one connection, the moment
// the previous answer arrived.
func serviceTimes(shots []shot, class int) []float64 {
	var xs []float64
	for _, sh := range shots {
		if sh.q.class == class {
			xs = append(xs, ms(sh.done.Sub(sh.start)))
		}
	}
	return xs
}

// latencies are the requests' latencies from their scheduled send.
func latencies(shots []shot) []float64 {
	xs := make([]float64, len(shots))
	for i, sh := range shots {
		xs[i] = ms(sh.done.Sub(sh.due))
	}
	return xs
}

// ---------------------------------------------------------------------------
// verification

// refs computes each job's time_ns with the library, serially and with
// the fast path off.
type refs struct {
	sess []*unimem.Session
	memo map[string]int64
	wall time.Duration // spent computing references
}

func newRefs(seed uint64) *refs {
	r := &refs{memo: map[string]int64{}}
	for _, p := range servePlatforms {
		opts := []unimem.Option{unimem.WithExactSim(), unimem.WithWorkers(1)}
		if seed != 0 {
			opts = append(opts, unimem.WithSeed(seed))
		}
		r.sess = append(r.sess, unimem.New(p.mach(), opts...))
	}
	return r
}

// compile validates and compiles the request's scenario, like the server.
func (q *sreq) compile() (*workloads.Workload, error) {
	if q.w != nil {
		return q.w, nil
	}
	if err := q.spec.Validate(); err != nil {
		return nil, err
	}
	w, err := q.spec.Compile()
	q.w = w
	return w, err
}

func (r *refs) timeNS(q *sreq) (int64, error) {
	if t, ok := r.memo[string(q.body)]; ok {
		return t, nil
	}
	w, err := q.compile()
	if err != nil {
		return 0, err
	}
	st, err := unimem.ParseStrategy(q.strategy)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	o, err := r.sess[q.plat].Run(context.Background(), w, st)
	r.wall += time.Since(t0)
	if err != nil {
		return 0, err
	}
	r.memo[string(q.body)] = o.Result.TimeNS
	return o.Result.TimeNS, nil
}

// digest hashes the reference times of the population and the exec pool.
func (r *refs) digest(c *corpus) (string, error) {
	var lines []string
	for _, q := range append(append([]*sreq(nil), c.pop...), c.pool...) {
		t, err := r.timeNS(q)
		if err != nil {
			return "", err
		}
		lines = append(lines, fmt.Sprintf("%s %d %s %d", q.spec.Name, q.plat, q.strategy, t))
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:]), nil
}

// verify checks every response: 200, no job error, the expected cache
// attribution for its class, and the library's time_ns for the same job.
func verify(rep *report, r *refs, shots []shot) {
	for _, sh := range shots {
		rep.Attempted++
		if sh.err != nil {
			rep.fail("%s request: %v", className[sh.q.class], sh.err)
			continue
		}
		if sh.resp.Error != "" {
			rep.fail("%s request: job error %s", className[sh.q.class], sh.resp.Error)
			continue
		}
		if sh.resp.CacheHit != (sh.q.class == classHit) {
			rep.fail("%s request %s: cache_hit %v", className[sh.q.class], sh.q.spec.Name, sh.resp.CacheHit)
			continue
		}
		want, err := r.timeNS(sh.q)
		if err != nil {
			rep.fail("reference for %s: %v", sh.q.spec.Name, err)
			continue
		}
		if sh.resp.TimeNS != want {
			rep.fail("%s request %s: time_ns %d, library %d", className[sh.q.class], sh.q.spec.Name, sh.resp.TimeNS, want)
		}
	}
}

// ---------------------------------------------------------------------------
// server-side readings

// serverMem is the server's Go runtime counters, read from its pprof
// listener (the MemStats block of the heap profile's text form).
type serverMem struct {
	totalAlloc, numGC float64
	pauses            []float64 // PauseNs: the last 256 pauses, circular
}

func (s *server) mem() (serverMem, error) {
	b, err := s.get(s.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return serverMem{}, err
	}
	var m serverMem
	fields := map[string]*float64{"TotalAlloc": &m.totalAlloc, "NumGC": &m.numGC}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if p, ok := fields[k]; ok {
			*p, _ = strconv.ParseFloat(v, 64) // a missing field reads 0
		}
		if k == "PauseNs" {
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				x, _ := strconv.ParseFloat(f, 64)
				m.pauses = append(m.pauses, x)
			}
		}
	}
	return m, sc.Err()
}

// pauseNS sums the pauses of the GC cycles after a's and up to b's. The
// record holds the last 256 pauses only: with more cycles in between, or
// no record, the sum is unknown and ok is false.
func pauseNS(a, b serverMem) (sum float64, ok bool) {
	if b.numGC-a.numGC > 256 || len(b.pauses) != 256 {
		return 0, false
	}
	for k := int(a.numGC) + 1; k <= int(b.numGC); k++ {
		sum += b.pauses[(k+255)%256]
	}
	return sum, true
}

// cpu reads the server process's user plus system CPU time.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields overall, in clock ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+2:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond, nil // USER_HZ is 100 on Linux
}

func (s *server) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	b, err := s.get(s.base + "/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// runHistogram reads the cumulative /run latency bucket counts (all cache
// attributions) from /metrics.
func (s *server) runHistogram() (map[float64]float64, error) {
	b, err := s.get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	h := map[float64]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "unimem_http_request_duration_seconds_bucket{") || !strings.Contains(line, `endpoint="/run"`) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndexByte(line, ' ')
		if i < 0 || j < 0 {
			continue
		}
		leStr := line[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le := math.Inf(1)
		if leStr != "+Inf" {
			le, _ = strconv.ParseFloat(leStr, 64)
		}
		v, _ := strconv.ParseFloat(line[j+1:], 64)
		h[le] += v
	}
	return h, nil
}

// histP50 interpolates the median of the bucket-count difference b - a.
func histP50(a, b map[float64]float64) float64 {
	var les []float64
	for le := range b {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := b[les[len(les)-1]] - a[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	rank, lo, prev := total/2, 0.0, 0.0
	for _, le := range les {
		c := b[le] - a[le]
		if c >= rank {
			if math.IsInf(le, 1) {
				return lo
			}
			return lo + (le-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = le, c
	}
	return lo
}

// sampler polls the server's in-flight request count.
type sampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	inflight int64
}

func (s *server) sample() *sampler {
	sm := &sampler{stop: make(chan struct{})}
	read := func() {
		if st, err := s.stats(); err == nil && st.InFlight > sm.inflight {
			sm.inflight = st.InFlight
		}
	}
	sm.done.Add(1)
	go func() {
		defer sm.done.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-sm.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return sm
}

func (sm *sampler) finish() {
	close(sm.stop)
	sm.done.Wait()
}

// ---------------------------------------------------------------------------
// the workload

// setupServer starts the server and warms the hit population: set-up.
func setupServer(bin string, seed uint64, c *corpus, r *refs, rep *report) (*server, error) {
	s, err := startServer(bin, seed)
	if err != nil {
		return nil, err
	}
	for _, q := range c.pop {
		miss := *q
		miss.class = classMiss // the first request of a population job executes
		st := s.send([]*sreq{&miss}, 0, 1)
		verify(rep, r, st.shots)
	}
	return s, nil
}

func runServe(bin string, seed uint64, dur time.Duration, traced bool) (*report, error) {
	if bin == "" {
		return nil, errors.New("serve workload needs --serve-bin")
	}
	c, err := newCorpus(seed)
	if err != nil {
		return nil, err
	}
	runStart := time.Now()
	r := newRefs(seed)
	d, err := r.digest(c)
	if err != nil {
		return nil, fmt.Errorf("library reference: %w", err)
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	if seed == ref.Seed && d != ref.Serve {
		return nil, fmt.Errorf("serve: reference digest %s differs from the committed %s", d, ref.Serve)
	}

	rep := newReport()
	var srv *server
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = setupServer(bin, seed, c, r, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	// The stream is sent in segments, with bursts between them, and each
	// latency metric is the median over segments: a slowdown of the
	// machine that lasts a few seconds spoils a minority of the segments.
	if err := resetPeakRSS(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	sm := srv.sample()
	measureStart := time.Now()
	// Each segment is whole blocks of the mix, so every segment carries
	// the same classes.
	blocks := math.Max(1, math.Round(streamRate*0.4*dur.Seconds()/rounds/float64(len(mixBlock))))
	segReqs := int(blocks) * len(mixBlock)
	burstTime := time.Duration(0.3 * float64(dur) / rounds)
	var stream []*sreq
	var reqP50, reqTail, execP50, hitP50, serverP50, passS []float64
	var lateMax time.Duration
	var backlogMax, inLimit int
	var tailQ string
	var pass, seg serverWork
	for i := 0; i < rounds; i++ {
		reqs, err := c.take(segReqs)
		if err != nil {
			return nil, err
		}
		a, err := srv.snapshot()
		if err != nil {
			return nil, err
		}
		res := srv.send(reqs, streamRate, conns)
		b, err := srv.snapshot()
		if err != nil {
			return nil, err
		}
		verify(rep, r, res.shots)
		stream = append(stream, reqs...)
		all := latencies(res.shots)
		var t float64
		t, tailQ = tail(all)
		reqP50, reqTail = append(reqP50, p50(all)), append(reqTail, t)
		serverP50 = append(serverP50, 1000*histP50(a.hist, b.hist))
		lateMax = max(lateMax, res.lateMax)
		backlogMax = max(backlogMax, res.backlogMax)
		for _, sh := range res.shots {
			if sh.err == nil && sh.resp.Error == "" && ms(sh.done.Sub(sh.due)) <= limitMS {
				inLimit++
			}
		}
		seg.add(a, b)

		// Closed-loop bursts: the serve pass, each between two snapshots.
		// Every burst sends the same population and pool jobs, so the
		// by-class service times are over the same jobs each time.
		for end := time.Now().Add(burstTime); ; {
			q, err := c.burst()
			if err != nil {
				return nil, err
			}
			if a, err = srv.snapshot(); err != nil {
				return nil, err
			}
			bs := srv.send(q, 0, 1)
			if b, err = srv.snapshot(); err != nil {
				return nil, err
			}
			pass.add(a, b)
			passS = append(passS, bs.wall.Seconds())
			execP50 = append(execP50, p50(serviceTimes(bs.shots, classExec)))
			hitP50 = append(hitP50, p50(serviceTimes(bs.shots, classHit)))
			verify(rep, r, bs.shots)
			if time.Now().After(end) {
				break
			}
		}
	}
	n := float64(len(passS))

	if traced {
		sm.finish()
		rep.set("serve.server_ms_p50", p50(serverP50), "ms")
		rep.set("serve.queued_max", float64(sm.inflight), "count")
		rep.set("loadgen.late_ms_max", ms(lateMax), "ms")
		rep.set("loadgen.backlog_max", float64(backlogMax), "count")
		rep.set("exp.cache_hits", seg.hits, "count")
		rep.set("exp.cache_misses", seg.misses, "count")
		rep.set("exp.cache_hit_frac", seg.hits/math.Max(1, seg.hits+seg.misses), "ratio")
		rep.set("go.gc_cycles", pass.gcs/n, "count")
		if pass.pauseBursts == 0 {
			rep.fail("go.gc_pause_ms: every burst ran more GC cycles than the server's pause record holds")
		} else {
			rep.set("go.gc_pause_ms", pass.pauseNS/1e6/float64(pass.pauseBursts), "ms")
		}
		if pass.pauseBursts < int(n) {
			rep.note("go.gc_pause_ms: %d of %d bursts ran more GC cycles than the pause record holds and are left out",
				int(n)-pass.pauseBursts, int(n))
		}
		return rep, tracedServe(rep, seed, r, stream, c, time.Duration(0.4*float64(dur)))
	}

	// Rate ladder.
	ladderStart := time.Now()
	rungs, maxRPS, err := ladder(srv, c, r, rep, dur/10)
	if err != nil {
		return nil, err
	}
	sm.finish()
	peak, err := peakRSS(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	passTail, passQ := tail(passS)
	rep.set("setup_s", p50(setups), "s")
	rep.set("pass_s_p50", p50(passS), "s")
	rep.set("pass_s_tail", passTail, "s")
	rep.set("cpu_s_per_pass", pass.cpu.Seconds()/n, "s")
	rep.set("alloc_mb_per_pass", pass.alloc/(1<<20)/n, "MB")
	rep.set("peak_rss_mb", peak, "MB")
	rep.set("req_ms_p50", p50(reqP50), "ms")
	rep.set("req_ms_tail", p50(reqTail), "ms")
	rep.set("exec_ms_p50", p50(execP50), "ms")
	rep.set("hit_ms_p50", p50(hitP50), "ms")
	rep.set("max_rps", maxRPS, "req/s")
	rep.note("stream: %d segments of %d requests at %d req/s over %d connections, latency from the scheduled send;"+
		" latency metrics are medians over segments (req_ms_tail: of each segment's %s)",
		rounds, segReqs, streamRate, conns, tailQ)
	rep.note("slo_frac %g: share of stream requests answered correctly within %d ms", float64(inLimit)/float64(len(stream)), limitMS)
	rep.note("generator ran at most %.3f ms late; backlog at most %d requests", ms(lateMax), backlogMax)
	rep.note("passes: %d closed-loop bursts of %d requests over one connection (pass_s_tail = %s); cpu and alloc are the server's;"+
		" exec_ms_p50 and hit_ms_p50 are the median over bursts of each burst's p50 service time of its %d execs and %d hits",
		len(passS), popSize+poolSize+burstMisses, passQ, poolSize, popSize)
	rep.note("ladder: %s", rungs)
	rep.note("run wall %.1f s: set-up %.1f s, stream and bursts %.1f s, ladder %.1f s; %.1f s of it library references",
		time.Since(runStart).Seconds(), measureStart.Sub(runStart).Seconds(), ladderStart.Sub(measureStart).Seconds(),
		time.Since(ladderStart).Seconds(), r.wall.Seconds())
	rep.note("fail_frac %g (%d of %d requests)", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	return rep, nil
}

// snapshot is the server's cumulative counters at one instant.
type snapshot struct {
	hist  map[float64]float64
	stats serve.StatsResponse
	mem   serverMem
	cpu   time.Duration
}

func (s *server) snapshot() (snapshot, error) {
	var sn snapshot
	var err error
	if sn.hist, err = s.runHistogram(); err != nil {
		return sn, err
	}
	if sn.stats, err = s.stats(); err != nil {
		return sn, err
	}
	if sn.mem, err = s.mem(); err != nil {
		return sn, err
	}
	sn.cpu, err = s.cpu()
	return sn, err
}

// serverWork accumulates the server's work between snapshot pairs.
// pauseNS is summed over the pauseBursts pairs whose pauses are known.
type serverWork struct {
	cpu                               time.Duration
	alloc, gcs, pauseNS, hits, misses float64
	pauseBursts                       int
}

func (c *serverWork) add(a, b snapshot) {
	c.cpu += b.cpu - a.cpu
	c.alloc += b.mem.totalAlloc - a.mem.totalAlloc
	c.gcs += b.mem.numGC - a.mem.numGC
	if p, ok := pauseNS(a.mem, b.mem); ok {
		c.pauseNS += p
		c.pauseBursts++
	}
	c.hits += float64(b.stats.Cache.Hits - a.stats.Cache.Hits)
	c.misses += float64(b.stats.Cache.Misses - a.stats.Cache.Misses)
}

// ladder finds the highest rate the server sustains: the highest rung
// whose p90 latency meets the limit without a growing backlog. It first
// measures the mix's saturated throughput (ladderProbe requests sent
// closed-loop) and starts there. Rungs are 10% apart, open-loop, each for
// rungDur: the ladder climbs while rungs keep up and descends while they
// do not, and ends at the first change, so the rung it reports kept up
// and the rung above it did not.
func ladder(srv *server, c *corpus, r *refs, rep *report, rungDur time.Duration) (string, float64, error) {
	probe, err := c.take(ladderProbe)
	if err != nil {
		return "", 0, err
	}
	st := srv.send(probe, 0, conns)
	verify(rep, r, st.shots)
	top := float64(len(probe)) / st.wall.Seconds()
	log := []string{fmt.Sprintf("saturated %.1f req/s;", top)}
	rung := func(rate float64) (bool, error) {
		reqs, err := c.take(int(math.Max(20, rate*rungDur.Seconds())))
		if err != nil {
			return false, err
		}
		st := srv.send(reqs, rate, conns)
		verify(rep, r, st.shots)
		lat := latencies(st.shots)
		growth := latencyGrowth(st.shots)
		ok := p90(lat) <= limitMS && growth <= limitMS/10
		log = append(log, fmt.Sprintf("%.1f req/s: p90 %.1f ms, growth %+.1f ms, %s;",
			rate, p90(lat), growth, map[bool]string{true: "ok", false: "over"}[ok]))
		return ok, nil
	}
	ok, err := rung(top)
	if err != nil {
		return "", 0, err
	}
	step := 1.1 // climb from a rung that keeps up
	if !ok {
		step = 1 / 1.1
	}
	for rate := top; rate >= 1; {
		next := rate * step
		nextOK, err := rung(next)
		if err != nil {
			return "", 0, err
		}
		if nextOK != ok {
			if ok {
				return strings.Join(log, " "), rate, nil
			}
			return strings.Join(log, " "), next, nil
		}
		rate = next
	}
	return strings.Join(log, " "), 0, nil
}

// latencyGrowth is how much a rung's latency grew, in ms: the median
// latency of its last third of requests, by scheduled send time, minus
// that of its first third. A server that keeps up holds its latency
// level; one that falls behind adds latency in proportion to the time it
// has been falling behind. Medians, because most requests of the mix are
// hits, which read the queue's typical state and not its bursts.
func latencyGrowth(shots []shot) float64 {
	third := len(shots) / 3
	if third == 0 {
		return 0
	}
	return p50(latencies(shots[len(shots)-third:])) - p50(latencies(shots[:third]))
}

// p90 is the nearest-rank 90th percentile.
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[(9*len(xs)+9)/10-1]
}

// tracedServe replays the stream's jobs in-process, untraced through the
// exp engine and traced through the wrapped harness, alternating, and
// reports the traced replays' per-layer totals per replay. Each replay
// compiles every request's scenario, as the server does.
func tracedServe(rep *report, seed uint64, r *refs, stream []*sreq, c *corpus, dur time.Duration) error {
	replay := func(run runner, sp specTimer, reqs []*sreq) error {
		for _, q := range reqs {
			if q.class == classMiss {
				// A miss is a scenario generated for this request alone.
				if _, err := sp.generate(q.arch, q.specSeed); err != nil {
					return err
				}
			}
			w, err := sp.compile(q.spec)
			if err != nil {
				return err
			}
			if _, err := run.run(serveJob(w, servePlatforms[q.plat].mach(), q.strategy)); err != nil {
				return err
			}
		}
		return nil
	}
	opts := app.Options{Seed: seed}
	var untracedS, tracedS []float64
	var sum layers
	n, tries := 0, 0
	for start := time.Now(); tries == 0 || time.Since(start) < dur; tries++ {
		// The population is warm before the stream, as on the server.
		u := newEngineRunner(seed, false)
		u.opts = opts
		if err := replay(u, plainSpecs{}, c.pop); err != nil {
			return err
		}
		u.keep = true
		t0 := time.Now()
		if err := replay(u, plainSpecs{}, stream); err != nil {
			return err
		}
		uw := time.Since(t0)
		rep.Attempted++
		if err := matchRefs(r, stream, u.outs); err != nil {
			rep.fail("untraced replay: %v", err)
			continue
		}

		tr := newTracedRunner(seed, nil)
		tr.opts = opts
		if err := replay(tr, plainSpecs{}, c.pop); err != nil {
			return err
		}
		tr.l, tr.want, tr.next = &layers{}, u.outs, 0
		t1 := time.Now()
		err := replay(tr, tracedSpecs{tr.l}, stream)
		tw := time.Since(t1)
		rep.Attempted++
		if err != nil {
			rep.fail("traced replay: %v", err)
			continue
		}
		untracedS = append(untracedS, uw.Seconds())
		tracedS = append(tracedS, tw.Seconds())
		sum.add(tr.l)
		n++
	}
	if n == 0 {
		return nil
	}
	setLayers(rep, &sum, n)
	rep.set("trace.overhead_frac", p50(tracedS)/p50(untracedS)-1, "ratio")
	rep.note("%d stream replays (%d requests each); untraced p50 %.3f s, traced %.3f s", n, len(stream), p50(untracedS), p50(tracedS))
	return nil
}

// matchRefs checks that a replay ran the jobs the server ran: each
// outcome must carry the library's time for its request, the time the
// server's answer was checked against.
func matchRefs(r *refs, reqs []*sreq, outs []outcome) error {
	if len(outs) != len(reqs) {
		return fmt.Errorf("%d outcomes for %d requests", len(outs), len(reqs))
	}
	for i, q := range reqs {
		want, err := r.timeNS(q)
		if err != nil {
			return err
		}
		if got := outs[i].res.TimeNS; got != want {
			return fmt.Errorf("%s request %s: time_ns %d, library %d", className[q.class], q.spec.Name, got, want)
		}
	}
	return nil
}

// serveJob resolves a request's strategy the way the server's session
// does.
func serveJob(w *workloads.Workload, m *machine.Machine, strategy string) job {
	switch strategy {
	case "hint-density":
		return hintJob(w, m)
	case "fastest-only":
		return staticJob(w, m.FastTwin(), "fast-only", nil)
	case "xmem":
		return xmemJob(w, m)
	}
	// The session's default config: the engine installs the calibration.
	return job{w: w, m: m, st: exp.StrategyUnimem(), kind: kindUnimem, cfg: core.DefaultConfig()}
}
