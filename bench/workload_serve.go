package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"teco/bench/spec"
	"teco/internal/conformance"
)

// request is one /run query of the generated schedule.
type request struct {
	query string
	paper bool // a paper table with a golden to diff; else a plane sweep
}

// schedule draws never-repeating requests from the seed, alternating the
// two classes. It is shared by the W clients, so the sequence sent does not
// depend on which client is faster.
type schedule struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seed int64
	n    int
	seen map[string]bool
}

func newSchedule(seed int64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), seed: seed, seen: map[string]bool{}}
}

func (s *schedule) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if s.n%2 == 0 {
		// Paper requests stay cold only while the cache key includes the
		// seed: a fresh seed per request is what makes the key new.
		id := spec.PaperIDs[s.rng.Intn(len(spec.PaperIDs))]
		return request{fmt.Sprintf("id=%s&seed=%d", id, s.seed*1_000_003+int64(s.n)), true}
	}
	for {
		replicas := 1 << s.rng.Intn(4)
		q := fmt.Sprintf("id=%s&layers=%d&cache_pct=%d&prefetch=%d&tier_dram_pct=%d&tier_migrate_budget=%d&replicas=%d&host_ports=%d",
			spec.PlaneIDs[s.rng.Intn(len(spec.PlaneIDs))], 1+s.rng.Intn(48), 5+s.rng.Intn(96), s.rng.Intn(5),
			5+s.rng.Intn(96), []int{0, 64, 512}[s.rng.Intn(3)], replicas, 1+s.rng.Intn(replicas))
		if !s.seen[q] {
			s.seen[q] = true
			return request{q, false}
		}
	}
}

// client is one closed-loop HTTP caller with a reused body buffer.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClients(base string, n int) []*client {
	tr := &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n}
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{hc: hc, base: base}
	}
	return out
}

// get sends one request and reads the whole reply. The body is valid until
// the client's next call.
func (c *client) get(path string) (status int, body []byte, took time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(t0), err
}

// envelope is the /run reply.
type envelope struct {
	Cached bool            `json:"cached"`
	Tables json.RawMessage `json:"tables"`
}

// checkCold verifies a cold reply: not served from cache, tables decode,
// paper tables diff clean against their goldens, plane tables have rows.
func checkCold(req request, body []byte, g goldens) error {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: reply is not JSON: %v", req.query, err)
	}
	if env.Cached {
		return fmt.Errorf("%s: a never-seen key was served from the cache", req.query)
	}
	var tabs []table
	if err := json.Unmarshal(env.Tables, &tabs); err != nil || len(tabs) == 0 {
		return fmt.Errorf("%s: tables do not decode or are empty (%v)", req.query, err)
	}
	for _, t := range tabs {
		if len(t.Rows) == 0 {
			return fmt.Errorf("%s: table %s has no rows", req.query, t.ID)
		}
		if req.paper {
			// These ids are seed-independent, so the seed-42 golden
			// holds at every seed: diff in full.
			if errs := g.check(t, conformance.GoldenSeed); len(errs) > 0 {
				return fmt.Errorf("%s: %v", req.query, errs[0])
			}
		}
	}
	return nil
}

// warmBody is the reply a stored key must produce from then on: the cold
// reply with the cached flag set, byte for byte.
func warmBody(cold []byte) []byte {
	return bytes.Replace(cold, []byte(`"cached":false`), []byte(`"cached":true`), 1)
}

// statz fetches the daemon's counters as a flat name -> value map
// ("hits", "cache.CorruptDropped", ...) and checks the ones that must hold
// at the end of a phase.
func statz(dm *daemon, want map[string]float64) (map[string]float64, error) {
	status, body, _, err := newClients(dm.base, 1)[0].get("/statz")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/statz: status %d: %v", status, err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	flat := map[string]float64{}
	for k, v := range raw {
		switch v := v.(type) {
		case float64:
			flat[k] = v
		case map[string]any:
			for k2, v2 := range v {
				if f, ok := v2.(float64); ok {
					flat[k+"."+k2] = f
				}
			}
		}
	}
	for _, k := range sortedKeys(want) {
		if got, ok := flat[k]; !ok || got != want[k] {
			return nil, fmt.Errorf("/statz %s = %v (present: %v), want %v", k, got, ok, want[k])
		}
	}
	return flat, nil
}

// stored is one key the daemon has computed, with the reply it must give
// when the key is read again.
type stored struct {
	req  request
	warm []byte
}

// loadResult is what W closed-loop clients measured in one phase.
type loadResult struct {
	ok, failed  int
	latencyMs   []float64
	doneAt      []time.Time // when each of latencyMs' requests completed
	planeMs     []float64   // cold only: the two request classes apart
	paperMs     []float64
	stored      []stored
	firstFailed string
}

// coldLoad has W clients draw from the schedule until stop (given the number
// of requests issued so far) says so, checks every reply, and keeps what was
// stored. A refused or failed request counts
// as failed and contributes no latency; a wrong reply aborts the run.
func coldLoad(p params, dm *daemon, sched *schedule, g goldens, stop func(issued int) bool, parent int) (*loadResult, error) {
	var mu sync.Mutex
	res := &loadResult{}
	var firstErr error
	issued := 0
	var wg sync.WaitGroup
	for _, c := range newClients(dm.base, spec.Workers()) {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for p.ctx.Err() == nil {
				mu.Lock()
				if firstErr != nil || stop(issued) {
					mu.Unlock()
					return
				}
				issued++
				op := issued
				mu.Unlock()
				req := sched.next()
				sp := p.rec.begin("GET /run cold", "server", op, parent)
				status, body, took, err := c.get("/run?" + req.query)
				p.rec.end(sp)
				var cerr error
				var keep []byte
				if err == nil && status == http.StatusOK {
					if cerr = checkCold(req, body, g); cerr == nil {
						keep = warmBody(body)
					}
				}
				mu.Lock()
				switch {
				case cerr != nil:
					if firstErr == nil {
						firstErr = cerr
					}
				case keep == nil:
					res.failed++
					if res.firstFailed == "" {
						res.firstFailed = fmt.Sprintf("%s: status %d: %v", req.query, status, err)
					}
				default:
					res.ok++
					ms := float64(took) / 1e6
					res.latencyMs = append(res.latencyMs, ms)
					res.doneAt = append(res.doneAt, time.Now())
					if req.paper {
						res.paperMs = append(res.paperMs, ms)
					} else {
						res.planeMs = append(res.planeMs, ms)
					}
					res.stored = append(res.stored, stored{req, keep})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return res, firstErr
}

// warmLoad has W clients re-read stored keys, uniformly at random, until
// stop says so. Every reply must equal the stored one byte for byte.
func warmLoad(p params, dm *daemon, keys []stored, stop func() bool, parent int) (*loadResult, error) {
	var mu sync.Mutex
	res := &loadResult{}
	var firstErr error
	var wg sync.WaitGroup
	for ci, c := range newClients(dm.base, spec.Workers()) {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.seed*31 + int64(ci)))
			var lat []float64
			var doneAt []time.Time
			ok, failed := 0, 0
			var failedMsg string
			var cerr error
			for n := 0; p.ctx.Err() == nil && cerr == nil && !stop(); n++ {
				k := keys[rng.Intn(len(keys))]
				sp := -1
				if n%100 == 0 { // every warm request is counted, one in a hundred gets a span
					sp = p.rec.begin("GET /run warm", "server", ci*1_000_000+n, parent)
				}
				status, body, took, err := c.get("/run?" + k.req.query)
				p.rec.end(sp)
				switch {
				case err != nil || status != http.StatusOK:
					failed++
					if failedMsg == "" {
						failedMsg = fmt.Sprintf("%s: status %d: %v", k.req.query, status, err)
					}
				case !bytes.Equal(body, k.warm):
					cerr = fmt.Errorf("%s: warm reply differs from the stored one:\n got %.200s\nwant %.200s", k.req.query, body, k.warm)
				default:
					ok++
					lat = append(lat, float64(took)/1e6)
					doneAt = append(doneAt, time.Now())
				}
			}
			mu.Lock()
			res.ok += ok
			res.failed += failed
			res.latencyMs = append(res.latencyMs, lat...)
			res.doneAt = append(res.doneAt, doneAt...)
			if res.firstFailed == "" {
				res.firstFailed = failedMsg
			}
			if firstErr == nil {
				firstErr = cerr
			}
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	return res, firstErr
}

// serveSetup builds tecosimd and loads the goldens; every set-up repetition
// of both serve workloads starts with it.
func serveSetup(p params) (bin string, g goldens, err error) {
	if bin, err = p.env.build("tecosimd"); err != nil {
		return "", nil, err
	}
	g, err = loadGoldens(p.env.root)
	return bin, g, err
}

// restart stops the daemon gracefully and starts it again over the same
// cache directory, returning the new daemon, the old one's usage and how
// long the cache was unavailable.
func restart(p params, dm *daemon, bin, dir string) (*daemon, usage, time.Duration, error) {
	t0 := time.Now()
	u, err := dm.stop()
	if err != nil {
		return nil, usage{}, 0, err
	}
	dm2, err := p.env.startDaemon(bin, dir)
	return dm2, u, time.Since(t0), err
}

// timedLoad runs load for p.seconds and cuts what it measured into
// spec.Windows equal windows: the requests completed in each, with their
// latencies, and the daemon's CPU time between the window's two edges. A
// request still in flight at the last edge is checked and counted but
// belongs to no window.
func timedLoad(p params, dm *daemon, load func(stop func() bool) (*loadResult, error)) (*loadResult, []window, error) {
	type edge struct {
		at  time.Time
		cpu time.Duration
	}
	mark := func() (edge, error) {
		cpu, err := dm.cpu()
		return edge{time.Now(), cpu}, err
	}
	first, err := mark()
	if err != nil {
		return nil, nil, err
	}
	edges := []edge{first}
	var stopped atomic.Bool
	var res *loadResult
	var loadErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, loadErr = load(stopped.Load)
	}()
	every := time.Duration(p.seconds / spec.Windows * float64(time.Second))
	for i := 0; i < spec.Windows; i++ {
		select {
		case <-time.After(every):
		case <-p.ctx.Done():
		case <-done: // the load gave up on a wrong reply
		}
		e, err := mark()
		if err != nil {
			stopped.Store(true)
			<-done
			return nil, nil, err
		}
		edges = append(edges, e)
	}
	stopped.Store(true)
	<-done
	if loadErr != nil {
		return nil, nil, loadErr
	}
	windows := make([]window, spec.Windows)
	for i := range windows {
		windows[i].wall, windows[i].cpu = edges[i+1].at.Sub(edges[i].at), edges[i+1].cpu-edges[i].cpu
	}
	for j, at := range res.doneAt {
		for i := range windows {
			if !at.After(edges[i+1].at) {
				windows[i].ops++
				windows[i].samplesMs = append(windows[i].samplesMs, res.latencyMs[j])
				break
			}
		}
	}
	return res, windows, nil
}

// fillServe records what both serve workloads report the same way: the
// counts, the best window, and the measured daemon's restart time, memory
// and CPU.
func (r *result) fillServe(load *loadResult, windows []window, u usage, down time.Duration) {
	r.Attempted, r.Failed, r.PeakRSSMiB = load.ok+load.failed, load.failed, u.peakRSSMiB
	r.useBest(windows)
	if load.failed > 0 {
		r.Notes = append(r.Notes, "first failed request: "+load.firstFailed)
	}
	r.Layer["serve.restart_ms"] = float64(down) / 1e6
	r.Layer["serve.peak_rss_mib"] = u.peakRSSMiB
	r.Layer["serve.cpu_s"] = u.cpu.Seconds()
}

// runServeCold times never-seen keys. An op and a sample are one request.
func runServeCold(p params) (*result, error) {
	var bin, dir string
	var g goldens
	var dm *daemon
	setups, err := timeSetups(func(last bool) (err error) {
		if bin, g, err = serveSetup(p); err != nil {
			return err
		}
		if dir, err = os.MkdirTemp(p.env.tmp, "cold-*"); err != nil {
			return err
		}
		if dm, err = p.env.startDaemon(bin, dir); err != nil || last {
			return err
		}
		dm.kill()
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	r := &result{
		Workload: "serve-cold", Seed: p.seed, SetupS: setups, OpUnit: "requests", SampleUnit: "one request",
		TailWant: 0.9, Exact: map[string]string{}, Layer: map[string]float64{},
	}
	phase := p.rec.begin("serve-cold", "bench", 0, -1)
	sched := newSchedule(p.seed)
	load, windows, err := timedLoad(p, dm, func(stop func() bool) (*loadResult, error) {
		return coldLoad(p, dm, sched, g, func(int) bool { return stop() }, phase)
	})
	p.rec.end(phase)
	if err != nil {
		return nil, err
	}
	if load.ok == 0 {
		return nil, fmt.Errorf("no cold request succeeded; first failure: %s", load.firstFailed)
	}
	want := map[string]float64{"computes": float64(load.ok), "hits": 0, "shed": 0, "timeouts": 0, "put_errors": 0, "cache.CorruptDropped": 0}
	if load.failed > 0 {
		want = nil // a refused request is reported as failed; the counters then need not add up
	}
	st, err := statz(dm, want)
	if err != nil {
		return nil, err
	}
	// Restart over the same cache: the first read of every sampled key
	// must be a hit that returns the stored bytes.
	dm2, u, down, err := restart(p, dm, bin, dir)
	if err != nil {
		return nil, err
	}
	verify := load.stored[:min(len(load.stored), p.scaled(spec.VerifyKeys))]
	if err := readOnce(dm2, verify); err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}
	if _, err := statz(dm2, map[string]float64{"hits": float64(len(verify)), "computes": 0, "cache.CorruptDropped": 0}); err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}
	if _, err := dm2.stop(); err != nil {
		return nil, err
	}
	r.fillServe(load, windows, u, down)
	r.Notes = append(r.Notes, "paper requests stay cold only while the cache key includes the seed")
	r.Layer["server.cold_plane_p50_ms"] = median(load.planeMs)
	r.Layer["server.cold_paper_p50_ms"] = median(load.paperMs)
	for name, key := range map[string]string{
		"server.computes": "computes", "server.coalesced": "coalesced", "server.shed": "shed",
		"diskcache.corrupt_dropped": "cache.CorruptDropped", "diskcache.put_errors": "put_errors",
	} {
		r.Layer[name] = st[key]
	}
	return r, os.RemoveAll(dir)
}

// readOnce reads each key exactly once, in order, from one client; every
// reply must be the stored one.
func readOnce(dm *daemon, keys []stored) error {
	c := newClients(dm.base, 1)[0]
	for _, k := range keys {
		status, body, _, err := c.get("/run?" + k.req.query)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %v", k.req.query, status, err)
		}
		if !bytes.Equal(body, k.warm) {
			return fmt.Errorf("%s: reply differs from the stored one:\n got %.200s\nwant %.200s", k.req.query, body, k.warm)
		}
	}
	return nil
}

// runServeWarm times re-reads of stored keys after a restart. An op and a
// sample are one request. Set-up stores the keys through the cold path,
// stops the daemon and starts it again over the cache, so the restart and
// the write path both show in setup_s.
func runServeWarm(p params) (*result, error) {
	var dir string
	var dm *daemon
	var keys []stored
	var down time.Duration
	nKeys := p.scaled(spec.WarmKeys)
	setups, err := timeSetups(func(last bool) error {
		bin, g, err := serveSetup(p)
		if err != nil {
			return err
		}
		if dir, err = os.MkdirTemp(p.env.tmp, "warm-*"); err != nil {
			return err
		}
		dm0, err := p.env.startDaemon(bin, dir)
		if err != nil {
			return err
		}
		fill, err := coldLoad(p, dm0, newSchedule(p.seed), g, func(issued int) bool { return issued >= nKeys }, -1)
		if err != nil {
			return err
		}
		if fill.failed > 0 {
			return fmt.Errorf("%d fill requests failed: %s", fill.failed, fill.firstFailed)
		}
		keys = fill.stored
		if dm, _, down, err = restart(p, dm0, bin, dir); err != nil || last {
			return err
		}
		dm.kill()
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	r := &result{
		Workload: "serve-warm", Seed: p.seed, SetupS: setups, OpUnit: "requests", SampleUnit: "one request",
		TailWant: 0.95, Exact: map[string]string{}, Layer: map[string]float64{},
	}
	phase := p.rec.begin("serve-warm", "bench", 0, -1)
	load, windows, err := timedLoad(p, dm, func(stop func() bool) (*loadResult, error) {
		return warmLoad(p, dm, keys, stop, phase)
	})
	p.rec.end(phase)
	if err != nil {
		return nil, err
	}
	if load.ok == 0 {
		return nil, fmt.Errorf("no warm request succeeded; first failure: %s", load.firstFailed)
	}
	want := map[string]float64{"hits": float64(load.ok), "computes": 0, "shed": 0, "timeouts": 0, "cache.CorruptDropped": 0}
	if load.failed > 0 {
		want = nil
	}
	st, err := statz(dm, want)
	if err != nil {
		return nil, err
	}
	u, err := dm.stop()
	if err != nil {
		return nil, err
	}
	r.fillServe(load, windows, u, down)
	r.Exact["stored_keys"] = fmt.Sprint(len(keys))
	r.Layer["server.hits"] = st["hits"]
	r.Layer["server.shed"] = st["shed"]
	r.Layer["diskcache.corrupt_dropped"] = st["cache.CorruptDropped"]
	return r, os.RemoveAll(dir)
}
