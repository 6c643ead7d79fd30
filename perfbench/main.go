// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload's fixed cell list through the logtmse harness and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 90, "failed": 0, "metrics": {"wall_s": {"value": 6.1, "unit": "s"}, ...}}
//
// Usage, from the root of a checkout (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload figure4-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it runs rounds of the workload's cell lists, one fresh
// child process per round, cycling through three lists drawn from the
// seed, for about --seconds, and reports the median round's end-to-end
// metrics, with times scaled to a nominal host speed (refclock.go).
// With --trace 1 it runs one untraced and one traced round of the first
// round's cells and reports the per-layer metrics. See README.md for the
// workloads, the metrics and why they were chosen.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the benchmark seed when --seed is not given.
// heldOutSeed is never used while writing a change; a claimed gain is
// re-checked on it.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// runLimit keeps a whole invocation inside the 180-second budget.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	spansDir string
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: figure4-grid | short-cells | checked-chaos")
	fs.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("benchmark seed; every cell seed derives from it (held-out seed: %d)", heldOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 10, "measure for about this many seconds, in rounds of the whole cell list (--trace 0)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced round")
	fs.StringVar(&o.size, "size", "full", "input size: full | tiny (the smoke test's)")
	fs.StringVar(&o.spansDir, "spans-dir", "", "with --trace 1, write the traced round's spans here as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if _, ok := sizes[o.size]; !ok || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --size must be full or tiny and --trace 0 or 1")
		return 2
	}
	if _, err := buildSpec(o.workload, o.seed, sizes[o.size]); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var rep report
	var err error
	if o.trace {
		rep, err = perLayer(ctx, o, stderr)
	} else {
		rep, err = endToEnd(ctx, o, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// childRun is one finished child round.
type childRun struct {
	round  roundResult
	setupS float64
	rssMB  float64
}

// runChild runs round r in a fresh process, so that every round pays
// its own one-time set-up and has its own peak resident set.
func runChild(ctx context.Context, o options, r int, traced bool, stderr io.Writer) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "child",
		"-workload", o.workload, "-seed", strconv.FormatInt(roundSeed(o.seed, r), 10),
		"-size", o.size, "-traced="+strconv.FormatBool(traced))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	// A child never outlives the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := time.Now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("round of %s: %w", o.workload, err)
	}
	var cr childRun
	if err := json.Unmarshal(out.Bytes(), &cr.round); err != nil {
		return childRun{}, fmt.Errorf("round of %s: %w", o.workload, err)
	}
	cr.setupS = float64(cr.round.SetupEndUnixNano-started.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	for _, e := range cr.round.Errors {
		fmt.Fprintln(stderr, "perfbench: cell failed:", e)
	}
	return cr, nil
}

// endToEnd runs untraced rounds for about o.seconds and reports the
// median round. It starts no round expected to end more than half a
// round past o.seconds, so an invocation lasts about o.seconds.
func endToEnd(ctx context.Context, o options, stderr io.Writer) (report, error) {
	start := time.Now()
	var runs []childRun
	for {
		cr, err := runChild(ctx, o, len(runs), false, stderr)
		if err != nil {
			return report{}, err
		}
		runs = append(runs, cr)
		fmt.Fprintf(stderr, "perfbench: %s round %d: wall %.3fs (raw %.3fs, host speed %.3f) setup %.3fs alloc %.1fMB rss %.1fMB\n",
			o.workload, len(runs), cr.round.WallS*cr.round.Speed, cr.round.WallS, cr.round.Speed,
			cr.setupS*cr.round.Speed, float64(cr.round.AllocBytes)/1e6, cr.rssMB)
		elapsed := time.Since(start).Seconds()
		if meanRound := elapsed / float64(len(runs)); elapsed+meanRound/2 >= o.seconds {
			break
		}
	}
	rep := report{Correct: true, Metrics: map[string]metric{}}
	for i, cr := range runs {
		rep.Attempted += cr.round.Attempted
		rep.Failed += cr.round.Failed
		if i >= roundLists && !bytes.Equal(cr.round.Counts.bytes(), runs[i-roundLists].round.Counts.bytes()) {
			fmt.Fprintf(stderr, "perfbench: count sections of rounds %d and %d differ on the same inputs\n", i-roundLists, i)
			rep.Correct = false
		}
	}
	rep.Correct = rep.Correct && rep.Failed == 0
	med := func(f func(childRun) float64) float64 {
		v := make([]float64, len(runs))
		for i, cr := range runs {
			v[i] = f(cr)
		}
		return median(v)
	}
	// Times are scaled to the nominal host speed (refclock.go).
	rep.Metrics["wall_s"] = metric{med(func(c childRun) float64 { return c.round.WallS * c.round.Speed }), "s"}
	rep.Metrics["setup_s"] = metric{med(func(c childRun) float64 { return c.setupS * c.round.Speed }), "s"}
	rep.Metrics["alloc_mb"] = metric{med(func(c childRun) float64 { return float64(c.round.AllocBytes) / 1e6 }), "MB"}
	rep.Metrics["peak_rss_mb"] = metric{med(func(c childRun) float64 { return c.rssMB }), "MB"}
	return rep, nil
}

// perLayer runs one untraced and one traced round and reports the
// per-layer metrics.
func perLayer(ctx context.Context, o options, stderr io.Writer) (report, error) {
	plain, err := runChild(ctx, o, 0, false, stderr)
	if err != nil {
		return report{}, err
	}
	tr, err := runChild(ctx, o, 0, true, stderr)
	if err != nil {
		return report{}, err
	}
	t := tr.round.Traced
	if t == nil {
		return report{}, errors.New("traced round returned no trace")
	}
	rep := report{
		Attempted: plain.round.Attempted + tr.round.Attempted,
		Failed:    plain.round.Failed + tr.round.Failed,
		Metrics:   map[string]metric{},
	}
	// The count section must repeat exactly: across processes (untraced
	// vs traced round) and between RunOne's results and the replicas'.
	a, b, c := plain.round.Counts.bytes(), tr.round.Counts.bytes(), t.ReplicaCounts.bytes()
	countsOK := bytes.Equal(a, b) && bytes.Equal(b, c)
	if !countsOK {
		fmt.Fprintf(stderr, "perfbench: count sections differ:\nuntraced %s\ntraced   %s\nreplicas %s\n", a, b, c)
	}
	rep.Correct = countsOK && rep.Failed == 0

	for k, v := range tr.round.Counts {
		unit := "count"
		if k == "sim.cycles" {
			unit = "cycles"
		}
		rep.Metrics[k] = metric{float64(v), unit}
	}
	for k, m := range t.Layers {
		rep.Metrics[k] = m
	}
	cs := tr.round.Counts
	runS := t.Layers["core.run_s"].Value
	rep.Metrics["sim.rand_draws"] = metric{float64(t.RandDraws), "count"}
	rep.Metrics["core.ns_per_access"] = metric{ratio(runS*1e9, float64(cs["core.accesses"])), "ns"}
	rep.Metrics["core.sim_cycles_per_s"] = metric{ratio(float64(cs["sim.cycles"]), runS), "1/s"}
	rep.Metrics["core.retry_share"] = metric{ratio(float64(cs["coherence.nacks"]), float64(cs["core.accesses"])), "ratio"}
	rep.Metrics["memo.hit_ratio"] = metric{ratio(float64(cs["memo.hits"]), float64(cs["memo.hits"]+cs["memo.misses"])), "ratio"}
	// Runtime counters explain the untraced round, whose wall time and
	// resident set the end-to-end metrics report.
	rep.Metrics["runtime.gc_cycles"] = metric{float64(plain.round.GCCycles), "count"}
	rep.Metrics["runtime.gc_pause_ms"] = metric{float64(plain.round.GCPauseNs) / 1e6, "ms"}
	rep.Metrics["trace.overhead_s"] = metric{tr.round.WallS - plain.round.WallS, "s"}
	rep.Metrics["host.wall_raw_s"] = metric{plain.round.WallS, "s"}
	rep.Metrics["host.speed"] = metric{plain.round.Speed, "ratio"}

	if o.spansDir != "" {
		if err := writeSpans(o, t.Spans); err != nil {
			return report{}, err
		}
	}
	fmt.Fprintf(stderr, "perfbench: %s untraced %.3fs traced %.3fs counts %s\n",
		o.workload, plain.round.WallS, tr.round.WallS, b)
	return rep, nil
}

func writeSpans(o options, spans []span) error {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	name := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	return os.WriteFile(name, b, 0o644)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// childMain runs one round and prints its roundResult as JSON.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", defaultSeed, "")
	sz := fs.String("size", "full", "")
	tracedRound := fs.Bool("traced", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runRound(*name, *seed, sizes[*sz], *tracedRound)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}
