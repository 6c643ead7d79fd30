package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"logtmse"
	"logtmse/internal/fault"
	"logtmse/internal/workload"
)

// roundResult is what one child process reports for one pass over a
// workload's cell list.
type roundResult struct {
	// SetupEndUnixNano is the wall clock at the first timed cell; the
	// parent subtracts the instant it started the child.
	SetupEndUnixNano int64 `json:"setup_end_unix_nano"`
	// WallS is the raw host seconds spent in the timed cells; the
	// reference quanta run between them are not part of it.
	WallS float64 `json:"wall_s"`
	// Speed is the host speed during the timed window, from refClock.
	Speed      float64  `json:"speed"`
	AllocBytes uint64   `json:"alloc_bytes"`
	GCCycles   uint32   `json:"gc_cycles"`
	GCPauseNs  uint64   `json:"gc_pause_ns"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Errors     []string `json:"errors,omitempty"`
	// Counts is the deterministic count section, from RunOne's results.
	Counts countSection `json:"counts"`
	Traced *tracedRound `json:"traced,omitempty"`
}

// tracedRound is the extra output of a traced pass.
type tracedRound struct {
	// ReplicaCounts is the count section recomputed from the traced
	// replicas; it must equal the round's Counts byte for byte.
	ReplicaCounts countSection      `json:"replica_counts"`
	RandDraws     uint64            `json:"rand_draws"`
	Layers        map[string]metric `json:"layers"`
	Spans         []span            `json:"spans"`
}

// countSection maps count metric names to values; encoding/json sorts
// the keys, so equal sections marshal to identical bytes.
type countSection map[string]uint64

// faultClasses are the injection classes the chaos mixes can apply.
var faultClasses = []string{"net-delay", "nack-delay", "victim", "sig-noise", "abort"}

// bytes is the section's canonical encoding. A map from strings to
// integers always marshals, so the error is dropped.
func (c countSection) bytes() []byte {
	b, _ := json.Marshal(c)
	return b
}

func newCountSection() countSection {
	c := countSection{}
	for _, k := range []string{
		"harness.cells", "core.accesses", "core.commits", "core.aborts", "core.stalls",
		"core.nontx_retries", "sim.cycles", "coherence.l1_hits", "coherence.l1_misses",
		"coherence.l2_misses", "coherence.nacks", "coherence.broadcasts", "coherence.forwards",
		"coherence.l1_tx_victims", "sig.false_positive_stalls", "sig.fp_episodes",
		"sig.summary_conflicts", "memo.hits", "memo.misses", "txlog.records",
		"txlog.filter_hits", "workload.units", "check.failures",
	} {
		c[k] = 0
	}
	for _, f := range faultClasses {
		c["fault.injected."+f] = 0
	}
	return c
}

// addCell accumulates one simulated cell's outcome.
func (c countSection) addCell(st logtmse.Stats, faults map[string]uint64, checkFailures int) {
	c["core.accesses"] += st.Coh.Loads + st.Coh.Stores
	c["core.commits"] += st.Commits
	c["core.aborts"] += st.Aborts
	c["core.stalls"] += st.Stalls
	c["core.nontx_retries"] += st.NonTxRetries
	c["sim.cycles"] += uint64(st.Cycles)
	c["coherence.l1_hits"] += st.Coh.L1Hits
	c["coherence.l1_misses"] += st.Coh.L1Misses
	c["coherence.l2_misses"] += st.Coh.L2Misses
	c["coherence.nacks"] += st.Coh.NACKs
	c["coherence.broadcasts"] += st.Coh.Broadcasts
	c["coherence.forwards"] += st.Coh.Forwards
	c["coherence.l1_tx_victims"] += st.Coh.L1TxVictims
	c["sig.false_positive_stalls"] += st.FalsePositiveStalls
	c["sig.fp_episodes"] += st.FPEpisodes
	c["sig.summary_conflicts"] += st.SummaryConflicts
	c["txlog.records"] += st.LogRecords
	c["txlog.filter_hits"] += st.LogFilterHits
	c["workload.units"] += st.WorkUnits
	c["check.failures"] += uint64(checkFailures)
	for _, f := range faultClasses {
		c["fault.injected."+f] += faults[f]
	}
}

// span is one timed call into a layer. Spans of one cell share Cell;
// the replica's calls have the replica span as parent.
type span struct {
	Cell    int    `json:"cell"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps a traced round's spans in memory.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(cellIdx int, name, parent string, start time.Time) {
	t.spans = append(t.spans, span{Cell: cellIdx, Name: name, Parent: parent,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: time.Since(t.origin).Nanoseconds()})
}

// replicaOut is what a traced replica of a cell observed.
type replicaOut struct {
	stats         logtmse.Stats
	cycles        logtmse.Cycle
	faults        map[string]uint64
	checkFailures int
	draws         uint64
}

// replicate re-runs a cell step by step with a span around each call
// into a layer, mirroring what RunOne does for an uncached cell.
func (t *tracer) replicate(ci int, c cell, rc logtmse.RunConfig) (out replicaOut, err error) {
	defer t.add(ci, "replica", "", time.Now())
	w, ok := logtmse.WorkloadByName(c.Workload)
	if !ok {
		return out, fmt.Errorf("unknown workload %q", c.Workload)
	}
	p := logtmse.DefaultParams()
	p.Seed = c.Seed
	p.Signature = rc.Variant.Sig

	start := time.Now()
	sys, err := logtmse.NewSystem(p)
	t.add(ci, "core.new", "replica", start)
	if err != nil {
		return out, err
	}
	start = time.Now()
	inst, err := w.Spawn(sys, workload.Config{Mode: rc.Variant.Mode, Threads: c.Threads, Scale: c.Scale})
	t.add(ci, "workload.spawn", "replica", start)
	if err != nil {
		return out, err
	}
	var chk *logtmse.Checker
	if rc.Checks.Any() {
		start = time.Now()
		chk = sys.AttachChecker(rc.Checks)
		t.add(ci, "check.attach", "replica", start)
	}
	var inj *logtmse.Injector
	if rc.Fault.Active() {
		start = time.Now()
		inj = fault.New(rc.Fault, sys)
		inj.Arm()
		t.add(ci, "fault.arm", "replica", start)
	}
	start = time.Now()
	if rc.MaxCycles > 0 {
		out.cycles = sys.RunUntil(rc.MaxCycles)
	} else {
		out.cycles = sys.Run()
	}
	t.add(ci, "core.run", "replica", start)
	if !sys.AllDone() {
		return out, fmt.Errorf("replica: threads stuck: %v", sys.Stuck())
	}
	start = time.Now()
	err = inst.Verify(sys)
	t.add(ci, "workload.verify", "replica", start)
	if err != nil {
		return out, fmt.Errorf("replica: %w", err)
	}
	if chk != nil {
		out.checkFailures = len(chk.Failures())
		if err := chk.Err(); err != nil {
			return out, fmt.Errorf("replica: %w", err)
		}
	}
	if inj != nil {
		out.faults = inj.Stats().ByClass()
	}
	out.stats = sys.Stats()
	out.draws = sys.Engine.RandDraws()
	return out, nil
}

// maxErrors bounds how many cell errors a round reports verbatim.
const maxErrors = 5

// runRound makes a workload's inputs, sets up (result cache and
// warm-up cells), then runs the timed cell list once, serially. With
// traced set, every simulated cell is also replayed by a traced replica.
func runRound(name string, benchSeed int64, sz size, traced bool) (roundResult, error) {
	var res roundResult
	sp, err := buildSpec(name, benchSeed, sz)
	if err != nil {
		return res, err
	}
	var cache *logtmse.ResultCache
	if sp.cached {
		cache = logtmse.NewResultCache("", 0)
	}
	rcs := make([]logtmse.RunConfig, len(sp.cells))
	for i, c := range sp.cells {
		if rcs[i], err = c.runConfig(cache); err != nil {
			return res, err
		}
	}
	for _, c := range sp.warm {
		rc, err := c.runConfig(nil)
		if err != nil {
			return res, err
		}
		if _, err := logtmse.RunOne(rc, c.Seed); err != nil {
			return res, fmt.Errorf("warm-up %v: %w", c, err)
		}
	}

	var tr *tracer
	var reps []replicaOut
	var repErrs []error
	if traced {
		tr = &tracer{origin: time.Now()}
		reps = make([]replicaOut, len(sp.cells))
		repErrs = make([]error, len(sp.cells))
	}
	results := make([]logtmse.RunResult, len(sp.cells))
	errs := make([]error, len(sp.cells))
	var ref refClock
	ref.quantum() // warm the code before anything is timed
	var cellTime time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.SetupEndUnixNano = time.Now().UnixNano()
	for i, c := range sp.cells {
		start := time.Now()
		results[i], errs[i] = logtmse.RunOne(rcs[i], c.Seed)
		if tr != nil {
			tr.add(i, "harness.cell", "", start)
			if errs[i] == nil && !c.Repeat {
				reps[i], repErrs[i] = tr.replicate(i, c, rcs[i])
			}
		}
		cellTime += time.Since(start)
		ref.keepUp(cellTime)
	}
	res.WallS = cellTime.Seconds()
	res.Speed = ref.speed()
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.GCCycles = after.NumGC - before.NumGC
	res.GCPauseNs = after.PauseTotalNs - before.PauseTotalNs

	// Checks and accounting, outside the timed window.
	res.Counts = newCountSection()
	var repCounts countSection
	if tr != nil {
		res.Traced = &tracedRound{ReplicaCounts: newCountSection()}
		repCounts = res.Traced.ReplicaCounts
	}
	computed := map[string]int{}
	fail := func(c cell, err error) {
		res.Failed++
		if len(res.Errors) < maxErrors {
			res.Errors = append(res.Errors, fmt.Sprintf("%v: %v", c, err))
		}
	}
	for i, c := range sp.cells {
		res.Attempted++
		r := results[i]
		key := c.String()
		switch {
		case errs[i] != nil:
			fail(c, errs[i])
		case c.Repeat:
			if j, ok := computed[key]; !ok || !reflect.DeepEqual(results[j], r) {
				fail(c, fmt.Errorf("memo-served result differs from the computed one"))
			}
		default:
			computed[key] = i
			res.Counts.addCell(r.Stats, r.Faults, len(r.CheckFailures))
			if tr == nil {
				break
			}
			rep := reps[i]
			repCounts.addCell(rep.stats, rep.faults, rep.checkFailures)
			res.Traced.RandDraws += rep.draws
			switch {
			case repErrs[i] != nil:
				fail(c, repErrs[i])
			case rep.stats != r.Stats || rep.cycles != r.Cycles:
				fail(c, fmt.Errorf("traced replica's Stats differ from RunOne's"))
			case !maps.Equal(rep.faults, r.Faults):
				fail(c, fmt.Errorf("traced replica's fault counts %v differ from RunOne's %v", rep.faults, r.Faults))
			}
		}
	}
	for _, cs := range []countSection{res.Counts, repCounts} {
		if cs == nil {
			continue
		}
		cs["harness.cells"] = uint64(len(sp.cells))
		if cache != nil {
			st := cache.Stats()
			cs["memo.hits"], cs["memo.misses"] = st.Hits, st.Misses
		}
	}
	if tr != nil {
		res.Traced.Spans = tr.spans
		res.Traced.Layers = layerTimes(tr.spans, sp.cells)
	}
	return res, nil
}

// layerTimes turns a traced round's spans into per-layer timings.
func layerTimes(spans []span, cells []cell) map[string]metric {
	busy := map[string]float64{} // ns per span name
	var cellMs []float64
	memoHitNs := 0.0
	for _, s := range spans {
		d := float64(s.EndNs - s.StartNs)
		busy[s.Name] += d
		if s.Name == "harness.cell" {
			cellMs = append(cellMs, d/1e6)
			if cells[s.Cell].Repeat {
				memoHitNs += d
			}
		}
	}
	sort.Float64s(cellMs)
	return map[string]metric{
		"core.run_s":          {busy["core.run"] / 1e9, "s"},
		"harness.cell_ms_p50": {percentile(cellMs, 0.50), "ms"},
		"harness.cell_ms_p90": {percentile(cellMs, 0.90), "ms"},
		"core.new_ms":         {busy["core.new"] / 1e6, "ms"},
		"workload.spawn_ms":   {busy["workload.spawn"] / 1e6, "ms"},
		"workload.verify_ms":  {busy["workload.verify"] / 1e6, "ms"},
		"check.attach_ms":     {busy["check.attach"] / 1e6, "ms"},
		"memo.hit_ms":         {memoHitNs / 1e6, "ms"},
	}
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, int(math.Ceil(q*float64(len(sorted))))-1)]
}
