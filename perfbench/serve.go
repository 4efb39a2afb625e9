package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bind"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/server"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

const serveWhy = "snad open-loop at 200/280/400 req/s, 2 conns: reads beside writes (churn, reanalyze, jobs); work = snad CPU per request; throughput = top rate with tails <= 200 ms"

// Routes of the served mix.
const (
	routeAnalyze   = "analyze"
	routeReport    = "report"
	routeReanalyze = "reanalyze"
	routeCreate    = "create"
	routeDelete    = "delete"
	routeJob       = "job_submit"
)

// serveMix is each route's share of requests. No published trace of
// what-if or sign-off query traffic was available, so the shares are
// unverified stand-ins: they take cmd/snadload's default class split,
// interactive:8, jobs:1, churn:1, and divide the interactive share evenly
// between the three interactive routes.
var serveMix = []struct {
	route  string
	weight float64
}{
	{routeAnalyze, 0.8 / 3}, {routeReport, 0.8 / 3}, {routeReanalyze, 0.8 / 3},
	{routeJob, 0.1}, {routeCreate, 0.1},
}

func isRead(route string) bool { return route == routeAnalyze || route == routeReport }

// sources are one design's files as text, ready to ship in a create.
type sources struct{ net, spef, win string }

func busSources(bits int, random bool, seed int64) (sources, error) {
	g, err := workload.Bus(workload.BusSpec{
		Bits: bits, Segs: 2, WindowWidth: 80 * units.Pico,
		RandomWindows: random, WindowSep: 30 * units.Pico, Seed: seed,
	})
	if err != nil {
		return sources{}, err
	}
	var n, s, w bytes.Buffer
	if err := netlist.Write(&n, g.Design); err != nil {
		return sources{}, err
	}
	if err := spef.Write(&s, g.Paras); err != nil {
		return sources{}, err
	}
	if err := sta.WriteInputTiming(&w, g.Inputs); err != nil {
		return sources{}, err
	}
	return sources{n.String(), s.String(), w.String()}, nil
}

// busNameRe matches the net, instance and port names workload.Bus gives
// a design: in3, d3, b3, r3, q3, ob3, out3.
var busNameRe = regexp.MustCompile(`\b(in|d|b|r|q|ob|out)(\d+)\b`)

// renamed gives every net, instance and port of a bus design the prefix,
// so that designs renamed with distinct prefixes share no name, and
// checks that no name was missed.
func (s sources) renamed(prefix string) (sources, error) {
	rep := prefix + "${1}${2}"
	out := sources{
		net:  busNameRe.ReplaceAllString(s.net, rep),
		spef: busNameRe.ReplaceAllString(s.spef, rep),
		win:  busNameRe.ReplaceAllString(s.win, rep),
	}
	d, err := netlist.Parse(strings.NewReader(out.net))
	if err != nil {
		return sources{}, err
	}
	for _, n := range d.Nets() {
		if !strings.HasPrefix(n.Name, prefix) {
			return sources{}, fmt.Errorf("renaming a bus design missed net %q", n.Name)
		}
	}
	for _, in := range d.Insts() {
		if !strings.HasPrefix(in.Name, prefix) {
			return sources{}, fmt.Errorf("renaming a bus design missed instance %q", in.Name)
		}
	}
	return out, nil
}

func (s sources) request(name string) *server.CreateSessionRequest {
	return &server.CreateSessionRequest{Name: name, Netlist: s.net, SPEF: s.spef, Timing: s.win}
}

// bind parses the sources in-process exactly as the server does and
// returns the design with the options a default session analyses with.
func (s sources) bind() (*bind.Design, core.Options, error) {
	lib := liberty.Generic()
	d, err := netlist.Parse(strings.NewReader(s.net))
	if err != nil {
		return nil, core.Options{}, err
	}
	p, err := spef.Parse(strings.NewReader(s.spef))
	if err != nil {
		return nil, core.Options{}, err
	}
	in, err := sta.ParseInputTiming(strings.NewReader(s.win))
	if err != nil {
		return nil, core.Options{}, err
	}
	b, err := bind.New(d, lib, p)
	if err != nil {
		return nil, core.Options{}, err
	}
	return b, core.Options{Mode: core.ModeNoiseWindows, FailSoft: true, STA: sta.Options{InputTiming: in}}, nil
}

// request is one scheduled operation.
type request struct {
	level int
	due   time.Duration // offset from the level's start
	route string
	// churn is the index of a create's design; pad a reanalyze's padding.
	churn int
	pad   map[string]float64
}

// served is one request's measured outcome.
type served struct {
	req    request
	lat    float64 // seconds from due to response; +Inf when it failed
	pickup float64 // seconds from due to a connection taking it
	late   float64 // seconds the generator dispatched it after due
	delLat float64 // a churn's delete, timed from its own start
	end    time.Time
}

// schedule draws each level's requests: rate×duration arrivals at seeded
// uniform times (a Poisson process conditioned on its count), each with a
// seeded route. Reanalyze padding grows with every call on the session,
// so every call changes some nets.
func schedule(rng *rand.Rand, rates []float64, level time.Duration, bits, padNets int) []request {
	var out []request
	padStep := 0
	churn := 0
	for l, rate := range rates {
		n := int(rate * level.Seconds())
		dues := make([]float64, n)
		for i := range dues {
			dues[i] = rng.Float64() * level.Seconds()
		}
		sort.Float64s(dues)
		for _, d := range dues {
			r := request{level: l, due: time.Duration(d * float64(time.Second))}
			x := rng.Float64()
			for _, m := range serveMix {
				if r.route = m.route; x < m.weight {
					break
				}
				x -= m.weight
			}
			switch r.route {
			case routeCreate:
				r.churn = churn
				churn++
			case routeReanalyze:
				padStep++
				r.pad = map[string]float64{}
				for _, i := range rng.Perm(bits)[:padNets] {
					r.pad["b"+strconv.Itoa(i)] = float64(padStep) * 0.5 * units.Pico
				}
			}
			out = append(out, r)
		}
	}
	return out
}

// serveSetupRepeats is how often serve_mixed sets up. One set-up takes
// about 16 ms, half of it spawning snad, and on a shared host its wall
// time drifts by 20% or more from one second to the next; the median of
// about two seconds of repeats follows that drift less.
const serveSetupRepeats = 101

// runServe drives a spawned snad open-loop at each offered rate in turn.
// The unit of work is one served request.
func runServe(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{why: serveWhy}
	conns := min(2, runtime.NumCPU())
	rng := rand.New(rand.NewSource(cfg.seed))

	shared, err := busSources(cfg.serveBits, false, 0)
	if err != nil {
		return nil, err
	}
	rates := cfg.rates
	if cfg.trace {
		// A traced run serves the nominal rate twice, untraced then
		// traced, so the two medians give the tracing overhead.
		rates = []float64{rates[0], rates[0]}
	}
	level := cfg.seconds / time.Duration(len(rates))
	reqs := schedule(rng, rates, level, cfg.serveBits, 2)
	var churn []sources
	for _, r := range reqs {
		if r.route == routeCreate {
			// Every churn design has its own windows and its own names, so
			// churn interns new symbols in snad as distinct designs would.
			src, err := busSources(cfg.serveBits, true, cfg.seed*1_000_003+int64(r.churn))
			if err == nil {
				src, err = src.renamed(fmt.Sprintf("c%d_", r.churn))
			}
			if err != nil {
				return nil, err
			}
			churn = append(churn, src)
		}
	}
	sb, sopts, err := shared.bind()
	if err != nil {
		return nil, err
	}
	ref, err := core.AnalyzeCtx(ctx, sb, sopts)
	if err != nil {
		return nil, err
	}
	sharedRef := digestCore(ref, nil)

	// Set-up, repeated: spawn to ready, then the two long-lived sessions
	// with one warm analysis each. The last server is kept. The garbage of
	// generating the inputs is collected first, not during the set-ups.
	runtime.GC()
	var srv *snadProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < serveSetupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv = nil
		}
		start := time.Now()
		if srv, err = spawnSnad(ctx, cfg.snad, filepath.Join(cfg.dir, fmt.Sprintf("data%d", i)), conns); err != nil {
			return nil, err
		}
		for _, name := range []string{"shared", "whatif"} {
			if _, err := srv.c.CreateSession(ctx, shared.request(name)); err != nil {
				return nil, fmt.Errorf("creating %s: %w", name, err)
			}
			resp, err := srv.c.Analyze(ctx, name, &server.AnalyzeRequest{}, 0)
			if err != nil {
				return nil, fmt.Errorf("warming %s: %w", name, err)
			}
			if err := checkResponse("warm "+name, resp, sharedRef); err != nil {
				return nil, err
			}
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	tr := newTracer(cfg.trace)
	before, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rw := startRuntimeWindow()
	results, jobIDs, whatifLog, err := drive(ctx, cfg, srv, tr, reqs, level, len(rates), churn, sharedRef)
	rw.close(o)
	if err != nil {
		return nil, err
	}
	for _, r := range results.items {
		o.attempted++
		if r.req.route == routeCreate {
			o.attempted++ // its delete
		}
		if math.IsInf(r.lat, 1) {
			o.failed++
		}
	}
	o.mismatches = append(o.mismatches, results.mismatches...)

	// Every submitted job must finish done: the server's done counter
	// must grow by exactly the jobs submitted, with none failed. The
	// results the server still retains must match the shared reference.
	o.attempted += len(jobIDs)
	if err := srv.awaitJobs(ctx, before, len(jobIDs)); err != nil {
		o.mismatch(err)
	}
	for _, id := range jobIDs[max(0, len(jobIDs)-retainedJobs):] {
		j, err := srv.c.JobStatus(ctx, id)
		if err != nil {
			o.mismatch(fmt.Errorf("job %s: %w", id, err))
			continue
		}
		if err := checkJob(j, sharedRef); err != nil {
			o.mismatch(err)
		}
	}
	// The reanalyze answers must match an in-process session replaying
	// the same padding in the same order.
	if len(whatifLog) > 0 {
		o.attempted++
		if err := replayWhatIf(ctx, sb, sopts, whatifLog); err != nil {
			o.mismatch(err)
		}
	}
	after, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	o.peakRSSMB = peakRSSMB(srv.cmd.Process.Pid)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	srv = nil

	o.fillServe(cfg, rates, level, results)
	if !cfg.trace {
		return o, nil
	}
	o.finishLayers(tr)
	delta := func(name string) float64 { return after[name] - before[name] }
	L := o.layers
	L["server.admission_wait_s"] = delta("snad_admission_wait_seconds_sum")
	L["server.sheds"] = delta("snad_shed_requests_total") + delta("snad_budget_sheds_total")
	L["server.analysis_s"] = delta("snad_analysis_seconds_sum")
	L["server.cache_hits"] = delta("snad_design_cache_hits_total")
	L["server.cache_misses"] = delta("snad_design_cache_misses_total")
	L["server.cache_lookups"] = L["server.cache_hits"] + L["server.cache_misses"]
	if L["server.cache_lookups"] > 0 {
		L["server.cache_hit_ratio"] = L["server.cache_hits"] / L["server.cache_lookups"]
	}
	L["server.cache_evictions"] = delta("snad_design_cache_evictions_total")
	L["wal.fsync_s"] = delta("snad_journal_fsync_seconds_sum")
	L["wal.fsync_count"] = delta("snad_journal_fsync_seconds_count")
	L["jobs.run_s"] = delta("snad_job_run_seconds_sum")
	L["jobs.done"] = delta("snad_jobs_done_total")
	L["jobs.failed"] = delta("snad_jobs_failed_total")
	L["intern.bytes_growth"] = delta("snad_interned_bytes")
	L["intern.symbols_growth"] = delta("snad_interned_symbols")
	// Client routes at the traced level.
	byRoute := map[string]samples{}
	for _, r := range results.items {
		if r.req.level != len(rates)-1 {
			continue
		}
		byRoute[r.req.route] = append(byRoute[r.req.route], r.lat)
		if r.req.route == routeCreate {
			byRoute[routeDelete] = append(byRoute[routeDelete], r.delLat)
		}
	}
	for _, route := range []string{routeAnalyze, routeReport, routeReanalyze, routeCreate, routeDelete, routeJob} {
		s := byRoute[route]
		L["client."+route+"_p50_ms"] = s.median() * 1e3
		if _, v, ok := s.tail(); ok {
			L["client."+route+"_tail_ms"] = v * 1e3
		}
	}
	var late samples
	byLevel := make([]samples, len(rates))
	for _, r := range results.items {
		late = append(late, r.late)
		byLevel[r.req.level] = append(byLevel[r.req.level], r.lat)
	}
	L["trace.overhead_ms"] = (byLevel[1].median() - byLevel[0].median()) * 1e3
	L["loadgen.late_ms"] = late.quantile(0.99) * 1e3
	return o, o.writeTrace(cfg, tr)
}

// fillServe turns the per-request outcomes into the serve figures.
func (o *outcome) fillServe(cfg *config, rates []float64, level time.Duration, res *windowResult) {
	items := res.items
	type lv struct {
		reads, writes, all samples
		pickups            samples
		last               time.Time
		ok                 int
	}
	levelStart := func(i int) time.Time { return res.start.Add(time.Duration(i) * level) }
	lvs := make([]lv, len(rates))
	for _, r := range items {
		l := &lvs[r.req.level]
		l.all = append(l.all, r.lat)
		if isRead(r.req.route) {
			l.reads = append(l.reads, r.lat)
		} else {
			l.writes = append(l.writes, r.lat)
			if r.req.route == routeCreate {
				l.writes = append(l.writes, r.delLat)
			}
		}
		l.pickups = append(l.pickups, r.pickup)
		if !math.IsInf(r.lat, 1) {
			l.ok++
		}
		if r.end.After(l.last) {
			l.last = r.end
		}
	}
	limit := cfg.tailLimit.Seconds()
	nominal := lvs[0]
	// The unit of work is one request of the mix, and its figure is the
	// snad CPU time it costs: the server's CPU time over the whole window
	// divided by its requests. Latency is reported but not gated by its
	// median: on a shared VM the hypervisor steals up to 19% of the CPU
	// time of a run, which moved the nominal read median by 30% between
	// runs of the same code; CPU time per request moved less. It still
	// drifted by 20% between ten-second stretches of one run, so it is
	// taken over the whole window rather than one rate. Latency is gated
	// through the tail limit instead.
	n := len(nominal.all)
	if last := len(res.levelCPU) - 1; last > 0 && len(items) > 0 {
		o.workMs = (res.levelCPU[last] - res.levelCPU[0]) * 1e3 / float64(len(items))
	}
	o.add("nominal_requests", float64(n), "count")
	perRoute := map[string]samples{}
	for _, r := range items {
		if r.req.level == 0 {
			perRoute[r.req.route] = append(perRoute[r.req.route], r.lat+r.delLat)
		}
	}
	for _, m := range serveMix {
		o.add(m.route+"_p50_ms", perRoute[m.route].median()*1e3, "ms")
	}
	o.addTiming("read", nominal.reads)
	o.addTiming("write", nominal.writes)
	for i, l := range lvs {
		_, rt, rok := l.reads.tail()
		_, wt, wok := l.writes.tail()
		// A backlog grows when requests late in the level wait longer for
		// a connection than the limit allows.
		tailStart := len(l.pickups) * 4 / 5
		backlog := l.pickups[tailStart:].median() > limit
		// Achieved rate: completions over the time from the level's start
		// to its last response.
		achieved := float64(l.ok) / l.last.Sub(levelStart(i)).Seconds()
		meets := rok && wok && rt <= limit && wt <= limit && !backlog && l.ok == len(l.all)
		o.add(fmt.Sprintf("rate%d.offered_per_s", i), rates[i], "1/s")
		o.add(fmt.Sprintf("rate%d.achieved_per_s", i), achieved, "1/s")
		o.add(fmt.Sprintf("rate%d.read_tail_ms", i), rt*1e3, "ms")
		o.add(fmt.Sprintf("rate%d.write_tail_ms", i), wt*1e3, "ms")
		if i+1 < len(res.levelCPU) && len(l.all) > 0 {
			o.add(fmt.Sprintf("rate%d.snad_cpu_ms", i), (res.levelCPU[i+1]-res.levelCPU[i])*1e3/float64(len(l.all)), "ms")
		}
		if meets {
			o.throughput = achieved
		}
	}
	o.add("serve_max_rps", o.throughput, "1/s")
	o.add("tail_limit_ms", limit*1e3, "ms")
}

// windowResult collects what the load window saw.
type windowResult struct {
	start time.Time // the schedule's time zero
	// levelCPU is snad's CPU time in seconds as each level starts, and
	// once more after the last response.
	levelCPU   []float64
	items      []served
	mismatches []string
}

// whatifStep is one acknowledged reanalyze, in the order the server
// applied them.
type whatifStep struct {
	pad  map[string]float64
	resp *server.AnalyzeResponse
}

// drive runs the schedule open-loop: a generator hands each request to
// one of conns workers at its due time, blocking while none is free, and
// every latency counts from the due time, so waiting for a connection
// counts.
func drive(ctx context.Context, cfg *config, srv *snadProc, tr *tracer, reqs []request, level time.Duration,
	levels int, churn []sources, sharedRef string) (*windowResult, []string, []whatifStep, error) {
	res := &windowResult{}
	var (
		mu       sync.Mutex
		jobIDs   []string
		whatifMu sync.Mutex // reanalyze calls apply in a known order
		log      []whatifStep
	)
	type job struct {
		req request
		due time.Time
	}
	work := make(chan job)
	res.start = time.Now()
	var wg sync.WaitGroup
	fail := func(route string, err error) {
		mu.Lock()
		res.mismatches = append(res.mismatches, fmt.Sprintf("%s: %v", route, err))
		mu.Unlock()
	}
	// Two tracers: a traced run traces only its last level.
	off := newTracer(false)
	for w := 0; w < srv.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range work {
				t := off
				if cfg.trace && j.req.level == levels-1 {
					t = tr
				}
				s := served{req: j.req, pickup: time.Since(j.due).Seconds()}
				octx := t.op(ctx)
				// Only the client call is timed; each answer is checked
				// after its latency is taken.
				var (
					err   error
					check func() error
				)
				switch r := j.req; r.route {
				case routeAnalyze, routeReport:
					var resp *server.AnalyzeResponse
					err = t.do(octx, "client."+r.route, func(ctx context.Context) (err error) {
						if r.route == routeAnalyze {
							resp, err = srv.c.Analyze(ctx, "shared", &server.AnalyzeRequest{}, 0)
						} else {
							resp, err = srv.c.Report(ctx, "shared")
						}
						return err
					})
					check = func() error { return checkResponse(r.route, resp, sharedRef) }
				case routeReanalyze:
					// The lock keeps the order the server applies paddings
					// in equal to the log's order; waiting for it counts.
					whatifMu.Lock()
					var resp *server.AnalyzeResponse
					err = t.do(octx, "client.reanalyze", func(ctx context.Context) (err error) {
						resp, err = srv.c.Reanalyze(ctx, "whatif", &server.ReanalyzeRequest{Padding: r.pad}, 0)
						return err
					})
					if err == nil {
						log = append(log, whatifStep{pad: r.pad, resp: resp})
					}
					whatifMu.Unlock()
				case routeJob:
					err = t.do(octx, "client.job_submit", func(ctx context.Context) error {
						snap, err := srv.c.SubmitJob(ctx, &jobs.Spec{Session: "shared", Type: "analyze"})
						if err == nil {
							mu.Lock()
							jobIDs = append(jobIDs, snap.ID)
							mu.Unlock()
						}
						return err
					})
				case routeCreate:
					name := fmt.Sprintf("churn-%d", r.churn)
					var info *server.SessionInfo
					err = t.do(octx, "client.create", func(ctx context.Context) (err error) {
						info, err = srv.c.CreateSession(ctx, churn[r.churn].request(name))
						return err
					})
					if err == nil {
						start := time.Now()
						err = t.do(octx, "client.delete", func(ctx context.Context) error {
							return srv.c.Delete(ctx, name)
						})
						s.delLat = time.Since(start).Seconds()
					}
					check = func() error {
						if info.Name != name {
							return fmt.Errorf("created %q, asked for %q", info.Name, name)
						}
						return nil
					}
				}
				s.end = time.Now()
				s.lat = s.end.Sub(j.due).Seconds()
				if err != nil {
					s.lat, s.delLat = math.Inf(1), math.Inf(1)
					fail(j.req.route, err)
				} else if check != nil {
					if cerr := check(); cerr != nil {
						fail(j.req.route, cerr)
					}
				}
				mu.Lock()
				res.items = append(res.items, s)
				mu.Unlock()
			}
		}(w)
	}
	// The generator.
	var lates []float64
	for _, r := range reqs {
		for len(res.levelCPU) <= r.level {
			res.levelCPU = append(res.levelCPU, srv.cpuSeconds())
		}
		due := res.start.Add(time.Duration(r.level)*level + r.due)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		lates = append(lates, time.Since(due).Seconds())
		work <- job{req: r, due: due}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	res.levelCPU = append(res.levelCPU, srv.cpuSeconds())
	// Requests finish out of order; pair each with its generator lateness.
	sort.Slice(res.items, func(i, j int) bool {
		a, b := res.items[i].req, res.items[j].req
		return a.level < b.level || a.level == b.level && a.due < b.due
	})
	for i := range res.items {
		res.items[i].late = lates[i]
	}
	return res, jobIDs, log, nil
}

// replayWhatIf applies the acknowledged paddings in order to an
// in-process session and compares every intermediate result.
func replayWhatIf(ctx context.Context, b *bind.Design, opts core.Options, steps []whatifStep) error {
	sess, err := core.NewSession(ctx, b, opts)
	if err != nil {
		return err
	}
	for i, st := range steps {
		res, _, err := sess.Reanalyze(ctx, st.pad)
		if err != nil {
			return err
		}
		if err := checkResponse(fmt.Sprintf("reanalyze %d", i), st.resp, digestCore(res, nil)); err != nil {
			return err
		}
	}
	return nil
}

// snadProc is a spawned `snad serve`.
type snadProc struct {
	cmd   *exec.Cmd
	base  string
	c     *client.Client
	http  *http.Client
	conns int
	out   *lockedBuffer
	done  chan error
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// spawnSnad starts snad on a loopback port with a durable data dir and
// waits until it is ready. The client holds at most conns connections.
func spawnSnad(ctx context.Context, path, dataDir string, conns int) (*snadProc, error) {
	// Without a budget the design cache keeps every idle design resident,
	// and churn over distinct designs grows the server without bound.
	cmd := exec.Command(path, "serve", "-listen", "127.0.0.1:0", "-data-dir", dataDir, "-quiet",
		"-mem-budget", "32MiB", "-job-queue", "1024")
	out := &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting snad: %w", err)
	}
	p := &snadProc{cmd: cmd, out: out, conns: conns, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			p.base = "http://" + m[1]
			break
		}
		select {
		case err := <-p.done:
			p.done <- err
			return nil, fmt.Errorf("snad exited before listening (%v): %s", err, out.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.kill()
			return nil, fmt.Errorf("snad never reported its address: %s", out.String())
		}
	}
	p.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	p.c = client.New(p.base, client.RetryPolicy{MaxAttempts: 1})
	p.c.SetHTTPClient(p.http)
	// Poll /readyz every millisecond: set-up time is measured through
	// this wait, and the client's own WaitReady polls every 20 ms.
	for {
		rz, err := p.c.Ready(ctx)
		if err == nil && rz.Status == "ready" {
			return p, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.kill()
			return nil, fmt.Errorf("snad never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains snad with SIGTERM and waits for it to exit; a drain that
// overruns 15 s is killed and reported.
func (p *snadProc) stop() error {
	p.http.CloseIdleConnections()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return nil
	}
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("snad drain: %v: %s", err, p.out.String())
		}
		return nil
	case <-time.After(15 * time.Second):
		p.kill()
		return fmt.Errorf("snad did not drain within 15s")
	}
}

func (p *snadProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// retainedJobs is how many of the newest jobs have their results checked:
// fewer than the 64 terminal jobs snad keeps by default.
const retainedJobs = 32

// awaitJobs waits until the jobs submitted since the before scrape have
// all finished, and requires every one of them done.
func (p *snadProc) awaitJobs(ctx context.Context, before map[string]float64, submitted int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		now, err := p.scrape(ctx)
		if err != nil {
			return err
		}
		done := int(now["snad_jobs_done_total"] - before["snad_jobs_done_total"])
		failed := int(now["snad_jobs_failed_total"] - before["snad_jobs_failed_total"] +
			now["snad_jobs_canceled_total"] - before["snad_jobs_canceled_total"])
		switch {
		case failed > 0:
			return fmt.Errorf("%d of %d jobs did not end done", failed, submitted)
		case done == submitted:
			return nil
		case done > submitted:
			return fmt.Errorf("%d jobs done, %d submitted", done, submitted)
		case time.Now().After(deadline):
			return fmt.Errorf("%d of %d jobs still unfinished after 60s", submitted-done, submitted)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// scrape reads snad's /metrics exposition into name → value, skipping
// labelled series.
func (p *snadProc) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds is snad's user plus system CPU time from /proc/<pid>/stat;
// 0 where that is unavailable.
func (p *snadProc) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name, which may itself hold
	// parentheses, start at field 3; utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	return (utime + stime) / clockTicks
}

// resetPeakRSS returns the freed heap to the OS and restarts this
// process's VmHWM from its current RSS, so the next reading is the peak
// of what runs in between. Where /proc/self/clear_refs is unavailable the
// readings stay the peak since the process started.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads a process's resident high-water mark (VmHWM) in MiB.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
