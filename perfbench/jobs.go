package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/victim"
)

// The jobs workloads drive an in-process lruleakd server (service.Server
// on store.OpenDisk, behind a loopback listener) from a closed loop of
// one HTTP client per core: each client POSTs /v1/jobs and blocks on
// report?wait=1 before sending its next job.
//
// jobs-fresh submits distinct-seed attack grids, so every job runs its
// engine cells and persists its report before it reads as done.
// jobs-repeat restarts a server on a store already holding its jobs and
// resubmits each spec several times: the first submission per key is a
// store read, the rest join the in-process dedup map, and no engine
// cell runs.

// goldenSeed is the seed the repository's goldens are pinned at.
const goldenSeed = 7

// jobSpec is the attack-job submission for seed: the CI smoke grid,
// ttable x Tree-PLRU x every defense. At goldenSeed with 6 symbols it
// is the spec testdata/attacksweep.golden pins.
func jobSpec(seed uint64, symbols int) string {
	return fmt.Sprintf(`{"kind":"attack","seed":%d,"attack":{"victims":["ttable"],"policies":["treeplru"],"symbols":%d}}`, seed, symbols)
}

// jobVictims are the victims jobSpec names, with the L1 set count the
// server validates them against (Sandy Bridge).
var jobVictims, jobSets = []string{"ttable"}, 64

// jobView is the part of the server's job JSON the benchmark reads.
type jobView struct {
	ID       string  `json:"id"`
	Status   string  `json:"status"`
	Restored bool    `json:"restored"`
	Dedup    bool    `json:"dedup"`
	WallMs   float64 `json:"wallMs"`
}

// server is one in-process server lifetime.
type server struct {
	svc    *service.Server
	http   *http.Server
	base   string
	served chan error
}

// startServer opens the store at dir (running its recovery scan),
// starts a service.Server with one engine worker per core behind a
// loopback listener, and waits until /healthz answers.
func (r *run) startServer(dir string, c *http.Client) (*server, error) {
	var disk *store.Disk
	var err error
	r.tr.timed("store.open", -1, func() { disk, err = store.OpenDisk(dir, store.DiskOptions{}) })
	if err != nil {
		return nil, err
	}
	var st store.Store = disk
	if r.tr != nil {
		st = &timedStore{Store: disk, r: r}
	}
	svc := service.New(service.Config{EngineWorkers: r.workers, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	if code, body, err := do(c, "GET", s.base+"/healthz", ""); err != nil || code != http.StatusOK {
		s.close(c)
		return nil, fmt.Errorf("healthz: %d %q %v", code, body, err)
	}
	return s, nil
}

// close stops the listener, waits for the serve loop to return, and
// closes the server, which closes its store.
func (s *server) close(c *http.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx) // no request is in flight between rounds
	<-s.served
	s.svc.Close()
	c.CloseIdleConnections()
}

// timedStore wraps the server's store so the traced run times every
// Get and Put the server makes, without touching the server's code.
type timedStore struct {
	store.Store
	r *run
}

func (t *timedStore) Get(key string) (b []byte, err error) {
	t.r.tr.timed("store.get", -1, func() { b, err = t.Store.Get(key) })
	if err == nil && t.r.tr.enabled() {
		t.r.add("store.bytes", float64(len(b)))
	}
	return b, err
}

func (t *timedStore) Put(key string, payload []byte) (err error) {
	t.r.tr.timed("store.put", -1, func() { err = t.Store.Put(key, payload) })
	if err == nil && t.r.tr.enabled() {
		t.r.add("store.bytes", float64(len(payload)))
	}
	return err
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns},
		Timeout:   2 * time.Minute,
	}
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// job runs one job the way a client does: POST the spec, then block on
// report?wait=1. Traced, it also times the victim build the server's
// spec validation performs (the same victim.ByName call, made here)
// and reads the job's execution wall time to split queueing from
// running.
func (r *run) job(c *http.Client, base, spec string) (string, jobView, error) {
	root := r.tr.begin("job", -1)
	defer r.tr.end(root)
	if r.tr.enabled() {
		for _, name := range jobVictims {
			r.tr.timed("victim.build", root, func() { victim.ByName(name, jobSets) })
		}
	}
	var sub jobView
	var code int
	var body []byte
	var err error
	t0 := time.Now()
	subDur := r.tr.timed("service.submit", root, func() { code, body, err = do(c, "POST", base+"/v1/jobs", spec) })
	if err != nil {
		return "", sub, err
	}
	if code == http.StatusServiceUnavailable {
		r.add("service.rejected", 1)
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return "", sub, fmt.Errorf("POST /v1/jobs: %d %s", code, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return "", sub, fmt.Errorf("POST /v1/jobs: %v", err)
	}
	r.tr.timed("service.report_wait", root, func() {
		code, body, err = do(c, "GET", base+"/v1/jobs/"+sub.ID+"/report?wait=1", "")
	})
	total := time.Since(t0)
	if err != nil {
		return "", sub, err
	}
	if code != http.StatusOK {
		return "", sub, fmt.Errorf("GET report of %s: %d %s", sub.ID, code, bytes.TrimSpace(body))
	}
	if r.tr.enabled() {
		var v jobView
		if code, b, err := do(c, "GET", base+"/v1/jobs/"+sub.ID, ""); err == nil && code == http.StatusOK && json.Unmarshal(b, &v) == nil {
			r.add("service.queue_wait_ms", float64((total-subDur).Nanoseconds())/1e6-v.WallMs)
			r.add("service.jobs_timed", 1)
		}
		r.add("service.submissions", 1)
	}
	return string(body), sub, nil
}

// closedLoop runs specs through one client goroutine per core, each
// sending its next job only after the previous report arrived. Every
// job is one operation: its latency is recorded, and it fails when the
// exchange fails or check returns a reason.
func (r *run) closedLoop(c *http.Client, base string, specs []string, check func(i int, report string, sub jobView) []string) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				t := time.Now()
				report, sub, err := r.job(c, base, specs[i])
				r.op(time.Since(t))
				var bad []string
				if err != nil {
					bad = []string{err.Error()}
				} else {
					bad = check(i, report, sub)
				}
				if len(bad) > 0 {
					r.attempt(1, fmt.Sprintf("job %d: %s", i, strings.Join(bad, "; ")))
				} else {
					r.attempt(1)
				}
			}
		}()
	}
	wg.Wait()
}

// scrapeServer reads the server's /metrics.
func scrapeServer(c *http.Client, base string) (map[string]float64, error) {
	code, body, err := do(c, "GET", base+"/metrics", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	return parseMetrics(string(body)), nil
}

// addServerDeltas adds the engine and service counters that moved
// between two scrapes to the per-layer sums.
func (r *run) addServerDeltas(before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	r.add("engine.cells", d("engine_cells_dispatched_total"))
	r.add("engine.busy_s", d("engine_cell_wall_seconds_sum"))
	r.add("engine.panics", d("engine_cells_panicked_total"))
	r.add("service.dedup_hits", d("service_dedup_hits_total"))
	r.add("service.store_hits", d("service_store_hits_total"))
}

// attackGolden returns the pinned attack report and the defense column
// every attack report must list, in order.
func (r *run) attackGolden() (golden, header string, defenses []string, err error) {
	golden, err = r.readGolden("attacksweep")
	if err != nil {
		return "", "", nil, err
	}
	header, _, _ = strings.Cut(golden, "\n")
	for _, d := range attack.Defenses() {
		defenses = append(defenses, d.String())
	}
	return golden, header, defenses, nil
}

func runJobsFresh(r *run) error {
	sz := r.cfg.size
	golden, header, defenses, err := r.attackGolden()
	if err != nil {
		return err
	}
	c := newClient(r.workers)
	defer c.CloseIdleConnections()

	// Set-up: open a new store (and its recovery scan), start the
	// server, and run the golden job as the warm-up — repeated on a
	// fresh directory each time; the last server serves the rounds.
	var srv *server
	defer func() {
		if srv != nil {
			srv.close(c)
		}
	}()
	for i := 0; i < sz.setupReps; i++ {
		if srv != nil {
			srv.close(c)
			srv = nil
		}
		err := r.timeSetup(func() error {
			s, err := r.startServer(filepath.Join(r.tmp, fmt.Sprintf("fresh-%d", i)), c)
			if err != nil {
				return err
			}
			srv = s
			report, _, err := r.job(c, s.base, jobSpec(goldenSeed, 6))
			if err != nil {
				return fmt.Errorf("warm-up job: %w", err)
			}
			if bad := attackReportProblems(report, golden, header, defenses); len(bad) > 0 {
				r.attempt(1, "warm-up job: "+strings.Join(bad, "; "))
			} else {
				r.attempt(1)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	r.ops = nil // the warm-up job is set-up, not a timed operation

	// Rounds count up on their own: the traced run's reference round
	// and its first traced round must not share seeds, or the second
	// would be answered from the first's results.
	n := 0
	round := func(int) error {
		seeds := engine.Seeds(roundSeed(r.cfg.seed, n), sz.freshJobs)
		n++
		specs := make([]string, len(seeds))
		for k, s := range seeds {
			specs[k] = jobSpec(s, sz.jobSymbols)
		}
		before, err := scrapeServer(c, srv.base)
		if err != nil {
			return err
		}
		r.closedLoop(c, srv.base, specs, func(_ int, report string, sub jobView) []string {
			if sub.Dedup || sub.Restored {
				return []string{"a fresh job was answered from a cache"}
			}
			return attackReportProblems(report, "", header, defenses)
		})
		after, err := scrapeServer(c, srv.base)
		if err != nil {
			return err
		}
		r.addServerDeltas(before, after)
		return nil
	}
	return r.measure(round, round)
}

func runJobsRepeat(r *run) error {
	sz := r.cfg.size
	golden, header, defenses, err := r.attackGolden()
	if err != nil {
		return err
	}
	c := newClient(r.workers)
	defer c.CloseIdleConnections()
	dir := filepath.Join(r.tmp, "repeat")

	// Fill the store (not timed, not set-up): the golden spec plus
	// distinct-seed jobs, computed and persisted by a first server.
	specs := []string{jobSpec(goldenSeed, 6)}
	for _, s := range engine.Seeds(r.cfg.seed, sz.repeatKeys-1) {
		specs = append(specs, jobSpec(s, sz.jobSymbols))
	}
	reports := make([]string, len(specs))
	srv, err := r.startServer(dir, c)
	if err != nil {
		return err
	}
	r.closedLoop(c, srv.base, specs, func(k int, report string, _ jobView) []string {
		reports[k] = report
		if k == 0 {
			return attackReportProblems(report, golden, header, defenses)
		}
		return attackReportProblems(report, "", header, defenses)
	})
	srv.close(c)
	r.ops = nil // filling is neither timed nor set-up

	round := func(i int) error {
		// Set-up: restart on the filled store (its recovery scan
		// included). Not charged to the round.
		err := r.pause(func() error {
			return r.timeSetup(func() error {
				s, err := r.startServer(dir, c)
				srv = s
				return err
			})
		})
		if err != nil {
			return err
		}
		var order []string
		var keys []int
		for d := 0; d < sz.repeatDup; d++ {
			for k := range specs {
				order = append(order, specs[k])
				keys = append(keys, k)
			}
		}
		r.closedLoop(c, srv.base, order, func(i int, report string, sub jobView) []string {
			var bad []string
			if !sub.Restored {
				bad = append(bad, "resubmission after restart not served from the store (restored:false)")
			}
			if report != reports[keys[i]] {
				bad = append(bad, "report differs from the one computed before the restart")
			}
			return bad
		})
		m, err := scrapeServer(c, srv.base)
		if err != nil {
			srv.close(c)
			return err
		}
		r.addServerDeltas(nil, m)
		var bad []string
		if n := m["engine_cells_dispatched_total"]; n != 0 {
			bad = append(bad, fmt.Sprintf("jobs-repeat dispatched %v engine cells, want 0", n))
		}
		if n := m["service_store_hits_total"]; int(n) != len(specs) {
			bad = append(bad, fmt.Sprintf("store hits %v, want one per key (%d)", n, len(specs)))
		}
		r.attempt(0, bad...)
		return r.pause(func() error { srv.close(c); return nil })
	}
	return r.measure(round, round)
}
