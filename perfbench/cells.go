package main

import (
	"fmt"

	"logtmse"
)

// cell is one simulated experiment cell: one RunOne call, one operation
// of the benchmark.
type cell struct {
	Workload string
	Variant  string
	Scale    float64
	Threads  int // 0: every hardware context (32 on the Table 1 machine)
	Seed     int64
	// Checked turns on every runtime oracle and the hang backstop, as
	// the chaos campaign does.
	Checked bool
	// Mix names a fault mix (empty: no injection); FaultSeed seeds it.
	Mix       string
	FaultSeed int64
	// Repeat marks a cell whose fingerprint an earlier cell of the list
	// already computed; with a shared result cache it is served from
	// the cache, and its result must equal the computed one.
	Repeat bool
}

// Chaos-harness shape (the defaults of cmd/chaos).
const (
	chaosWatchdog  = 400_000
	chaosMaxCycles = 3_000_000
)

// spec is one workload of the benchmark: a fixed cell list plus the
// untimed warm-up cells that belong to its set-up.
type spec struct {
	cells []cell
	warm  []cell
	// cached runs every timed cell through one in-memory ResultCache.
	cached bool
}

// size scales a workload for the smoke test; "full" is what the
// benchmark measures.
type size struct {
	scale      float64
	shortSeeds int
	chaosCells int
}

var sizes = map[string]size{
	"full": {scale: 0.05, shortSeeds: 20, chaosCells: 160},
	"tiny": {scale: 0.01, shortSeeds: 1, chaosCells: 4},
}

var workloadNames = []string{"figure4-grid", "short-cells", "checked-chaos"}

// chaosMixes are the fault mixes that run through the library harness
// (cmd/chaos sends "sched" and "storm" to its OS-scheduler scenario
// instead).
var chaosMixes = []string{"delay", "victims", "signoise", "aborts"}

// splitmix64 derives independent cell seeds from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seeder hands out the cell seeds of one benchmark seed, in order.
type seeder struct{ state uint64 }

func newSeeder(benchSeed int64) *seeder { return &seeder{state: uint64(benchSeed)} }

func (s *seeder) next() int64 {
	s.state = splitmix64(s.state)
	return 1 + int64(s.state%1_000_000_007)
}

// roundLists is how many cell lists the rounds of one invocation cycle
// through.
const roundLists = 3

// roundSeed is the seed of round r of one invocation. Round 0 uses the
// benchmark seed itself; the rounds cycle through roundLists cell lists
// drawn from it, so that an invocation's median covers several seeds'
// worth of work rather than one (the work of a figure4-grid list varies
// by ~10% between seeds), while rounds r and r+roundLists repeat the
// same inputs and must give the same counts.
func roundSeed(benchSeed int64, r int) int64 {
	if r%roundLists == 0 {
		return benchSeed
	}
	return int64(splitmix64(uint64(benchSeed)*0x9e3779b97f4a7c15+uint64(r%roundLists)) >> 1)
}

// buildSpec makes a workload's inputs from the benchmark seed; the same
// seed always gives the same cell list.
func buildSpec(name string, benchSeed int64, sz size) (spec, error) {
	seeds := newSeeder(benchSeed)
	warmSeed := seeds.next()
	switch name {
	case "figure4-grid":
		// The 30 Figure-4 cells; every variant of a row shares the
		// row's seed, as Figure4 does.
		var sp spec
		for _, w := range logtmse.Workloads() {
			seed := seeds.next()
			for _, v := range logtmse.Figure4Variants() {
				sp.cells = append(sp.cells, cell{Workload: w.Name, Variant: v.Name, Scale: sz.scale, Seed: seed})
			}
			sp.warm = append(sp.warm, cell{Workload: w.Name, Variant: "Lock", Scale: sz.scale, Seed: warmSeed})
		}
		return sp, nil
	case "short-cells":
		sp := spec{cached: true}
		var perfect []cell
		for i := 0; i < sz.shortSeeds; i++ {
			seed := seeds.next()
			for _, w := range []string{"Mp3d", "Radiosity", "Cholesky"} {
				for _, v := range []string{"Lock", "Perfect", "BS", "CBS", "DBS"} {
					c := cell{Workload: w, Variant: v, Scale: sz.scale, Seed: seed}
					sp.cells = append(sp.cells, c)
					if v == "Perfect" {
						perfect = append(perfect, c)
					}
				}
			}
			for _, w := range []string{"Raytrace", "BerkeleyDB"} {
				sp.cells = append(sp.cells, cell{Workload: w, Variant: "Lock", Scale: sz.scale, Seed: seed})
			}
		}
		// The Table-2 pass re-requests every Perfect cell.
		for _, c := range perfect {
			c.Repeat = true
			sp.cells = append(sp.cells, c)
		}
		for _, w := range []string{"Mp3d", "Radiosity", "Cholesky", "Raytrace", "BerkeleyDB"} {
			sp.warm = append(sp.warm, cell{Workload: w, Variant: "Lock", Scale: sz.scale, Seed: warmSeed})
		}
		return sp, nil
	case "checked-chaos":
		var sp spec
		chaos := func(i int, seed int64) cell {
			return cell{Workload: "BerkeleyDB", Variant: "BS", Scale: sz.scale, Threads: 8, Seed: seed,
				Checked: true, Mix: chaosMixes[i%len(chaosMixes)], FaultSeed: seeds.next()}
		}
		for i := 0; i < sz.chaosCells; i++ {
			sp.cells = append(sp.cells, chaos(i, seeds.next()))
		}
		sp.warm = append(sp.warm, chaos(0, warmSeed))
		return sp, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runConfig is the cell's RunOne configuration, built only from the
// library's stable entry points.
func (c cell) runConfig(cache *logtmse.ResultCache) (logtmse.RunConfig, error) {
	v, ok := logtmse.VariantByName(c.Variant)
	if !ok {
		return logtmse.RunConfig{}, fmt.Errorf("unknown variant %q", c.Variant)
	}
	rc := logtmse.RunConfig{Workload: c.Workload, Variant: v, Scale: c.Scale, Threads: c.Threads, Jobs: 1, Cache: cache}
	if c.Checked {
		rc.Checks = logtmse.AllChecks(chaosWatchdog)
		rc.MaxCycles = chaosMaxCycles
	}
	if c.Mix != "" {
		plan, err := logtmse.FaultMix(c.Mix, c.FaultSeed)
		if err != nil {
			return logtmse.RunConfig{}, err
		}
		rc.Fault = plan
	}
	return rc, nil
}

func (c cell) String() string {
	s := fmt.Sprintf("%s/%s seed %d", c.Workload, c.Variant, c.Seed)
	if c.Mix != "" {
		s += " mix " + c.Mix
	}
	return s
}
