package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/flowcmd"
	"repro/internal/serve/job"
)

// daemon_jobs drives the real socetd binary over loopback. A session is
// one fresh daemon (new state directory) serving the seed's fixed job
// list from daemonClients closed-loop clients, then a graceful SIGTERM.
// Sessions repeat until the budget is spent, so a run ends on a job
// count: the journal, which rewrites every job ever submitted on each
// state change, never grows past one list.
const (
	daemonJobsPerSession = 16
	daemonClients        = 2
	daemonWorkers        = 2
	daemonCores          = 12
	daemonChipBase       = 0x5eed00 // job slot i runs on generator seed daemonChipBase+i
	daemonStarts         = 9        // set-up samples taken before the first session
	daemonRefSamples     = 2        // reference samples after each session
	daemonWait           = "120s"
)

// daemonJob is one slot of the job list.
type daemonJob struct {
	kind string
	spec job.Spec
}

// daemonList is the seed's job list: 2:1:1 explore (4 shards, 256
// points) : campaign (2 shards, 16 runs of 2 faults) : evaluate, each
// on its own 12-core generated chip, submitted in slot order. Slot i
// always holds the same chip and job type, so every seed does the same
// work in the same order (and the same pairs of jobs overlap); the seed
// draws the campaigns' fault sets.
func daemonList(seed uint64) []daemonJob {
	rng := splitMix{seed}
	list := make([]daemonJob, daemonJobsPerSession)
	for i := range list {
		s := job.Spec{Chip: flowcmd.ChipSpec{Gen: &flowcmd.GenSpec{Seed: daemonChipBase + uint64(i), Cores: daemonCores}}, Timeout: "60s"}
		switch i % 4 {
		case 0, 1:
			s.Type, s.Shards, s.MaxPoints = job.TypeExplore, 4, 256
		case 2:
			s.Type, s.Shards, s.Runs, s.SetSize = job.TypeCampaign, 2, 16, 2
			s.Seed = int64(rng.next()>>33) + 1
		default:
			s.Type = job.TypeEvaluate
		}
		list[i] = daemonJob{kind: s.Type, spec: s}
	}
	return list
}

// daemon is one running socetd process and the HTTP client that talks
// to it. Each daemon gets its own client: a kept-alive connection to an
// earlier daemon that happened to hold the same port would fail the
// next POST.
type daemon struct {
	cmd    *exec.Cmd
	client *http.Client
	dir    string
	base   string
	stderr bytes.Buffer
	done   chan struct{} // closed when stderr is drained
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// startDaemon starts socetd on a fresh state directory and returns once
// /readyz answers, with the start-to-ready time.
func startDaemon(bin, dir, metricsFile string) (*daemon, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	args := []string{"-dir", dir, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(daemonWorkers), "-queue", "64"}
	if metricsFile != "" {
		args = append(args, "-metrics", metricsFile)
	}
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}},
		dir:    dir,
		done:   make(chan struct{}),
	}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.WriteString(line + "\n")
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.cmd.Wait()
		return nil, 0, fmt.Errorf("socetd exited before listening:\n%s", d.stderr.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("socetd did not listen within 30s")
	}
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("socetd not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 30s), waits for it
// and removes its state directory. It returns the daemon's peak RSS and
// its journal size at exit.
func (d *daemon) stop() (rssMiB float64, journalBytes int64, err error) {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	err = d.cmd.Wait()
	timer.Stop()
	<-d.done
	if fi, serr := os.Stat(filepath.Join(d.dir, "journal.ck")); serr == nil {
		journalBytes = fi.Size()
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMiB = float64(ru.Maxrss) / 1024
	}
	os.RemoveAll(d.dir)
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		// socetd answers /readyz before it installs its SIGTERM handler,
		// so a stop right after start-up can end it by the signal's
		// default action instead of a drain. Only the set-up starts stop
		// that early, before any job is submitted.
		err = nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("socetd: %v\n%s", err, d.stderr.String())
	}
	return rssMiB, journalBytes, nil
}

func (d *daemon) kill() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Kill()
	d.cmd.Wait()
	<-d.done
	os.RemoveAll(d.dir)
}

// jobTiming is one job round trip as the client saw it.
type jobTiming struct {
	total, submit time.Duration
	result        string
	err           error
}

// session runs the job list against d from daemonClients clients, each
// submitting its next job only after the previous one settled.
func (d *daemon) session(list []daemonJob) (out []jobTiming, wall time.Duration) {
	out = make([]jobTiming, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				out[i] = d.roundTrip(list[i].spec)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// roundTrip is one op: POST /jobs, then GET /jobs/{id}/result?wait=
// until the job settles.
func (d *daemon) roundTrip(spec job.Spec) (t jobTiming) {
	body, err := json.Marshal(spec)
	if err != nil {
		t.err = err
		return t
	}
	t0 := time.Now()
	defer func() { t.total = time.Since(t0) }()
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.err = err
		return t
	}
	var rec job.Record
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	t.submit = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.err = fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
		return t
	}
	for {
		resp, err := d.client.Get(d.base + "/jobs/" + rec.ID + "/result?wait=" + daemonWait)
		if err != nil {
			t.err = err
			return t
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			t.err = err
			return t
		case resp.StatusCode == http.StatusOK:
			t.result = string(text)
			return t
		case resp.StatusCode != http.StatusAccepted:
			t.err = fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, text)
			return t
		}
	}
}

// inProcess executes specs on an in-process job manager, the reference
// the daemon's results must equal byte for byte.
func inProcess(dir string, specs []job.Spec) ([]string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m, err := job.New(job.Options{Dir: dir, Workers: daemonWorkers, QueueLimit: len(specs)})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	out := make([]string, len(specs))
	for i, s := range specs {
		rec, err := m.Submit(s)
		if err != nil {
			return nil, err
		}
		if rec, err = m.Wait(context.Background(), rec.ID); err != nil {
			return nil, err
		}
		if rec.State != job.StateDone {
			return nil, fmt.Errorf("in-process %s job: %s", s.Type, rec.Error)
		}
		out[i] = rec.Result
	}
	return out, nil
}

var (
	tatLine      = regexp.MustCompile(`(?m)^tat (\d+)$`)
	cellsLine    = regexp.MustCompile(`(?m)^chip_dft_cells (\d+)$`)
	coverageLine = regexp.MustCompile(`coverage mean ([0-9.]+)%`)
)

// daemonQuality reads the deterministic bottom lines out of the job
// results: summed TAT and chip DFT cells of the evaluate jobs, and the
// mean retained test coverage of the campaign jobs.
func daemonQuality(list []daemonJob, results []string) (tat, cells int, coverage float64, err error) {
	var covs []float64
	for i, j := range list {
		res := results[i]
		switch j.kind {
		case job.TypeEvaluate:
			t, c := tatLine.FindStringSubmatch(res), cellsLine.FindStringSubmatch(res)
			if t == nil || c == nil {
				return 0, 0, 0, fmt.Errorf("evaluate result without tat/chip_dft_cells:\n%s", res)
			}
			tv, _ := strconv.Atoi(t[1])
			cv, _ := strconv.Atoi(c[1])
			tat += tv
			cells += cv
		case job.TypeCampaign:
			m := coverageLine.FindStringSubmatch(res)
			if m == nil {
				return 0, 0, 0, fmt.Errorf("campaign result without coverage:\n%s", res)
			}
			v, _ := strconv.ParseFloat(m[1], 64)
			covs = append(covs, v)
		}
	}
	var sum float64
	for _, v := range covs {
		sum += v
	}
	return tat, cells, sum / float64(len(covs)), nil
}

func daemonJobs(r *run) error {
	if r.socetd == "" {
		return fmt.Errorf("-socetd is required")
	}
	r.ref.graphs = true
	list := daemonList(r.seed)
	stateDir := filepath.Join(r.state, fmt.Sprintf("socetd-%d", os.Getpid()))
	defer os.RemoveAll(stateDir)

	var setups []float64
	for i := 0; i < daemonStarts; i++ {
		d, dur, err := startDaemon(r.socetd, stateDir, "")
		if err != nil {
			return err
		}
		setups = append(setups, dur.Seconds())
		if _, _, err := d.stop(); err != nil {
			return err
		}
		r.ref.sample(1)
	}

	var reference []string // the first session's results
	var latencies, rates, rss []float64
	// runSession runs one session and checks it against the first one.
	runSession := func(metricsFile string) ([]jobTiming, int64, error) {
		d, dur, err := startDaemon(r.socetd, stateDir, metricsFile)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, dur.Seconds())
		timings, wall := d.session(list)
		peak, journal, err := d.stop()
		if err != nil {
			return nil, 0, err
		}
		rss = append(rss, peak)
		r.ref.sample(daemonRefSamples)
		ok := 0
		for i, t := range timings {
			r.attempted++
			switch {
			case t.err != nil:
				r.fail("%s job (slot %d): %v", list[i].kind, i, t.err)
				continue
			case reference != nil && t.result != reference[i]:
				r.fail("%s job (slot %d): result differs from the first session's", list[i].kind, i)
				continue
			}
			ok++
			latencies = append(latencies, ms(t.total))
		}
		if reference == nil {
			reference = make([]string, len(timings))
			for i, t := range timings {
				reference[i] = t.result
			}
		}
		rates = append(rates, float64(ok)/wall.Seconds())
		fmt.Fprintf(os.Stderr, "session %d: %d/%d jobs in %.2fs, peak RSS %.1f MiB\n", len(rates), ok, len(timings), wall.Seconds(), peak)
		return timings, journal, nil
	}

	if r.trace {
		if err := daemonTraced(r, list, stateDir, runSession); err != nil {
			return err
		}
	} else {
		var last time.Duration
		for n := 0; r.more(n, last); n++ {
			t0 := time.Now()
			if _, _, err := runSession(""); err != nil {
				return err
			}
			last = time.Since(t0)
		}
		r.values["op_ms_p50"] = median(latencies)
		r.values["op_ms_p90"] = quantile(latencies, 0.9)
		r.values["work_per_s"] = median(rates)
		r.values["setup_s"] = median(setups)
		r.values["peak_rss_mb"] = median(rss)
	}

	// In-process reference for one job of each type plus one more.
	var specs []job.Spec
	var slots []int
	seen := map[string]bool{}
	for i, j := range list {
		if !seen[j.kind] || len(slots) == 3 {
			seen[j.kind] = true
			specs = append(specs, j.spec)
			slots = append(slots, i)
		}
		if len(slots) == 4 {
			break
		}
	}
	want, err := inProcess(stateDir+"-ref", specs)
	if err != nil {
		return err
	}
	for k, i := range slots {
		r.attempted++
		if reference[i] != want[k] {
			r.fail("%s job (slot %d): daemon result differs from in-process execution:\n%s\nvs\n%s", list[i].kind, i, reference[i], want[k])
		}
	}
	tat, cells, cov, err := daemonQuality(list, reference)
	if err != nil {
		return err
	}
	r.values["tat_cycles"] = float64(tat)
	r.values["dft_cells"] = float64(cells)
	r.values["fault_coverage_pct"] = cov
	return nil
}

// daemonTraced alternates plain sessions with sessions whose daemon
// has its obs registry enabled (-metrics) while the budget allows, at
// least one pair. Per-type latencies and the submit time are timed from
// the client over the traced sessions; counts come from the first
// traced daemon's own registry; the latency p50 ratio of traced to plain
// sessions is the trace overhead.
func daemonTraced(r *run, list []daemonJob, stateDir string, runSession func(string) ([]jobTiming, int64, error)) error {
	metricsFile := stateDir + "-metrics.json"
	defer os.Remove(metricsFile)
	var plain, withObs, submits []float64
	byKind := map[string][]float64{}
	var growth []float64
	var last time.Duration
	for n := 0; r.more(n, last); n++ {
		t0 := time.Now()
		timings, _, err := runSession("")
		if err != nil {
			return err
		}
		for _, t := range timings {
			plain = append(plain, ms(t.total))
		}
		timings, journal, err := runSession(metricsFile)
		if err != nil {
			return err
		}
		if n == 0 {
			raw, err := os.ReadFile(metricsFile)
			if err != nil {
				return err
			}
			lt := newLayerTally()
			if err := json.Unmarshal(raw, &lt.counters); err != nil {
				return fmt.Errorf("socetd metrics: %w", err)
			}
			lt.reportCounters(r)
			r.values["job.journal_bytes"] = float64(journal)
		}
		for i, t := range timings {
			withObs = append(withObs, ms(t.total))
			byKind[list[i].kind] = append(byKind[list[i].kind], ms(t.total))
			submits = append(submits, ms(t.submit))
		}
		growth = append(growth, p50Growth(list, timings))
		last = time.Since(t0)
	}
	r.values["api.submit_ms"] = median(submits)
	r.values["job.explore_ms"] = median(byKind[job.TypeExplore])
	r.values["job.campaign_ms"] = median(byKind[job.TypeCampaign])
	r.values["job.evaluate_ms"] = median(byKind[job.TypeEvaluate])
	r.values["job.p50_growth"] = median(growth)
	r.values["trace_overhead_pct"] = 100 * (median(withObs)/median(plain) - 1)
	return nil
}

// p50Growth is how much slower a session's last quarter of jobs ran than
// its first, in submission order: the ratio of the two quarters' median
// latencies, each latency first divided by its job type's median so the
// mix of types in a quarter does not count as growth.
func p50Growth(list []daemonJob, timings []jobTiming) float64 {
	byKind := map[string][]float64{}
	for i, t := range timings {
		byKind[list[i].kind] = append(byKind[list[i].kind], ms(t.total))
	}
	norm := make([]float64, len(timings))
	for i, t := range timings {
		norm[i] = ms(t.total) / median(byKind[list[i].kind])
	}
	q := len(norm) / 4
	return median(norm[len(norm)-q:]) / median(norm[:q])
}
