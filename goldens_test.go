package logtmse

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/fault"
	"logtmse/internal/osm"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
	"logtmse/internal/workload"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/runresult_goldens.txt")

const runResultGoldensFile = "testdata/runresult_goldens.txt"

// goldenRun is one pinned cell: a name (the golden file key) and the
// function producing the value whose canonical JSON is hashed.
type goldenRun struct {
	name string
	run  func() (any, error)
}

// runResultGoldenCells lists every pinned cell: the full Figure-4 grid
// (5 workloads x 6 variants) at two seeds, the alternative machine
// shapes (snoop, 2-chip, cache bits, contention model), the Table-3
// signature sweep, one checked cell per harness fault mix, and one
// OS-scheduled cell with deschedule and page-relocation faults.
func runResultGoldenCells() []goldenRun {
	const scale = 0.02
	var cells []goldenRun
	one := func(name, wname, vname string, seed int64, edit func(*RunConfig)) {
		cells = append(cells, goldenRun{name, func() (any, error) {
			v, ok := VariantByName(vname)
			if !ok {
				return nil, fmt.Errorf("unknown variant %q", vname)
			}
			rc := RunConfig{Workload: wname, Variant: v, Scale: scale}
			if edit != nil {
				edit(&rc)
			}
			return RunOne(rc, seed)
		}})
	}
	for _, w := range Workloads() {
		for _, v := range Figure4Variants() {
			for _, seed := range []int64{1, 2} {
				one(fmt.Sprintf("fig4/%s/%s/seed%d", w.Name, v.Name, seed), w.Name, v.Name, seed, nil)
			}
		}
	}
	// The Table-3 signature sweep at cmd/table3's default seed. Its
	// 64-bit CBS and DBS cells are not in the Figure-4 grid.
	type table3Sig struct {
		label string
		sc    sig.Config
	}
	table3Sigs := []table3Sig{{"Perfect", sig.Config{Kind: sig.KindPerfect}}}
	for _, bits := range []int{2048, 64} {
		table3Sigs = append(table3Sigs,
			table3Sig{fmt.Sprintf("BS_%d", bits), sig.Config{Kind: sig.KindBitSelect, Bits: bits}},
			table3Sig{fmt.Sprintf("CBS_%d", bits), sig.Config{Kind: sig.KindCoarseBitSelect, Bits: bits}},
			table3Sig{fmt.Sprintf("DBS_%d", bits), sig.Config{Kind: sig.KindDoubleBitSelect, Bits: bits}})
	}
	for _, wname := range []string{"Raytrace", "BerkeleyDB"} {
		for _, s := range table3Sigs {
			wname, s := wname, s
			cells = append(cells, goldenRun{"table3/" + wname + "/" + s.label + "/seed1", func() (any, error) {
				v := Variant{Name: s.label, Mode: workload.TM, Sig: s.sc}
				return RunOne(RunConfig{Workload: wname, Variant: v, Scale: scale}, 1)
			}})
		}
	}
	shape := func(name, wname, vname string, edit func(*Params)) {
		one("shape/"+name+"/"+wname+"/"+vname+"/seed1", wname, vname, 1, func(rc *RunConfig) {
			p := DefaultParams()
			edit(&p)
			rc.Params = &p
		})
	}
	shape("snoop", "BerkeleyDB", "BS", func(p *Params) { p.Protocol = ProtocolSnoop })
	shape("2chip", "BerkeleyDB", "BS", func(p *Params) { p.Chips = 2 })
	shape("cachebits", "BerkeleyDB", "Perfect", func(p *Params) { p.CD = CDCacheBits })
	shape("contention", "Radiosity", "Perfect", func(p *Params) { p.ModelContention = true })
	for _, mix := range []string{"delay", "victims", "signoise", "aborts"} {
		mix := mix
		one("chaos/"+mix+"/BerkeleyDB/BS/seed1", "BerkeleyDB", "BS", 1, func(rc *RunConfig) {
			plan, err := fault.MixPlan(mix, 0)
			if err != nil {
				panic(err)
			}
			rc.Fault = plan
			rc.Checks = AllChecks(0)
		})
	}
	cells = append(cells, goldenRun{"os/sched/counter/seed1", func() (any, error) { return osScheduledGolden(1) }})
	return cells
}

// osGoldenResult is the RunResult-shaped outcome of the OS-scheduled
// golden cell, which runs outside the harness.
type osGoldenResult struct {
	Cycles Cycle
	Stats  Stats
	OS     osm.Stats
	Faults map[string]uint64
}

// osScheduledGolden runs an oversubscribed shared-counter workload under
// the OS model with the "sched" fault mix (forced deschedules and page
// relocations) and every oracle attached.
func osScheduledGolden(seed int64) (any, error) {
	p := core.DefaultParams()
	p.Seed = seed
	p.Cores, p.ThreadsPerCore = 4, 2
	p.GridW, p.GridH = 2, 2
	p.L1Bytes, p.L2Bytes, p.L2Banks = 8*1024, 128*1024, 4
	p.Signature = sig.Config{Kind: sig.KindBitSelect, Bits: 256}
	sys, err := core.NewSystem(p)
	if err != nil {
		return nil, err
	}
	chk := sys.AttachChecker(AllChecks(0))
	sched := osm.New(sys, 1_500)
	sched.DeferInTxFactor = 0
	proc := sched.NewProcess("P")
	counter := addr.VAddr(0x9000)
	pageArea := addr.VAddr(0x20000)
	const workers, rounds = 12, 8
	for i := 0; i < workers; i++ {
		sched.Spawn(proc, "w", func(a *core.API) {
			rng := a.Rand()
			for r := 0; r < rounds; r++ {
				a.Transaction(func() {
					v := a.Load(counter)
					a.Compute(sim.Cycle(40 + rng.Intn(200)))
					a.Store(counter, v+1)
					a.Store(pageArea+addr.VAddr(rng.Intn(8)*64), v)
				})
				a.Compute(80)
			}
		})
	}
	plan, err := fault.MixPlan("sched", seed*7919+13)
	if err != nil {
		return nil, err
	}
	inj := fault.New(plan, sys)
	inj.BindOS(sched, proc)
	inj.Arm()
	end := sys.RunUntil(50_000_000)
	if !sys.AllDone() {
		return nil, fmt.Errorf("threads stuck: %v", sys.Stuck())
	}
	if err := chk.Err(); err != nil {
		return nil, err
	}
	if got := sys.Mem.ReadWord(proc.PT.Translate(counter)); got != workers*rounds {
		return nil, fmt.Errorf("counter = %d, want %d", got, workers*rounds)
	}
	return osGoldenResult{Cycles: end, Stats: sys.Stats(), OS: sched.Stats(), Faults: inj.Stats().ByClass()}, nil
}

// goldenHash is the SHA-256 of a value's canonical JSON (encoding/json
// sorts map keys, so the encoding is deterministic).
func goldenHash(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(runResultGoldensFile)
	if err != nil {
		if *updateGoldens && os.IsNotExist(err) {
			return map[string]string{}
		}
		t.Fatalf("%v (regenerate with go test -run TestRunResultGoldens -update .)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", runResultGoldensFile, line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunResultGoldens pins the complete outcome — every Stats and
// coherence counter, cycles, work units and fault counts — of the whole
// Figure-4 grid at two seeds plus every alternative machine shape, the
// Table-3 signature sweep, the checked fault mixes and an OS-scheduled
// cell, as a SHA-256 of the
// result's canonical JSON. Any change to simulated behavior anywhere in
// these cells shows up here; a pure performance change must leave every
// hash alone. Regenerate (only for a deliberate, documented re-pin) with
//
//	go test -run TestRunResultGoldens -update .
func TestRunResultGoldens(t *testing.T) {
	want := readGoldens(t)
	cells := runResultGoldenCells()
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("cells", func(t *testing.T) {
		for _, c := range cells {
			c := c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				v, err := c.run()
				if err != nil {
					t.Fatal(err)
				}
				sum, err := goldenHash(v)
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				got[c.name] = sum
				mu.Unlock()
				if *updateGoldens {
					return
				}
				if w, ok := want[c.name]; !ok {
					t.Errorf("no golden recorded (regenerate with -update)")
				} else if w != sum {
					t.Errorf("result hash drifted:\n got %s\nwant %s", sum, w)
				}
			})
		}
	})
	if !*updateGoldens {
		if len(want) != len(cells) {
			t.Errorf("golden file has %d entries, test pins %d cells", len(want), len(cells))
		}
		return
	}
	if t.Failed() {
		t.Fatal("not rewriting goldens: a cell failed")
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# SHA-256 of each cell's canonical-JSON result (TestRunResultGoldens).\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", n, got[n])
	}
	if err := os.MkdirAll(filepath.Dir(runResultGoldensFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runResultGoldensFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
