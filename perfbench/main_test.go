package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// benchMain re-executes itself for a child round.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

// manifest is the part of BENCHMARK.json the smoke test checks against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runTiny runs one invocation at the smoke-test size and decodes its
// last output line.
func runTiny(t *testing.T, workload string, trace int) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain([]string{"--workload", workload, "--seed", "3", "--seconds", "0",
		"--trace", strconv.Itoa(trace), "--size", "tiny"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %d: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s --trace %d: last line is not a report: %v", workload, trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s --trace %d: correct=%v attempted=%d failed=%d\n%s",
			workload, trace, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
	}
	return rep
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its
// unit, and has no failed cell.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		e2e := runTiny(t, w, 0)
		for _, want := range m.EndToEnd {
			got, ok := e2e.Metrics[want.Name]
			if !ok || got.Unit != want.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w, want.Name, got, ok, want.Unit)
			}
		}
		layers := runTiny(t, w, 1)
		for _, want := range m.PerLayer {
			if got, ok := layers.Metrics[want.Name]; !ok || got.Unit != want.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want unit %s", w, want.Name, got, ok, want.Unit)
			}
		}
		if len(layers.Metrics) != len(m.PerLayer) {
			t.Errorf("%s: traced run printed %d metrics, BENCHMARK.json lists %d", w, len(layers.Metrics), len(m.PerLayer))
		}
	}
}

// TestCountsRepeat checks that two traced invocations print identical
// deterministic counts: later changes compare them exactly.
func TestCountsRepeat(t *testing.T) {
	a := runTiny(t, "checked-chaos", 1)
	b := runTiny(t, "checked-chaos", 1)
	names := []string{"sim.rand_draws"}
	for name := range newCountSection() {
		names = append(names, name)
	}
	for _, name := range names {
		if ma, mb := a.Metrics[name], b.Metrics[name]; ma != mb {
			t.Errorf("%s: %v then %v", name, ma.Value, mb.Value)
		}
	}
}

// TestBadInvocation checks that unusable arguments fail without a report.
func TestBadInvocation(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "figure4-grid", "--trace", "2"},
		{"--workload", "figure4-grid", "--size", "huge"},
	} {
		var stdout, stderr bytes.Buffer
		if code := benchMain(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestSpecsAreSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, err := buildSpec(w, 5, sizes["full"])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildSpec(w, 5, sizes["full"])
		c, _ := buildSpec(w, 6, sizes["full"])
		if len(a.cells) == 0 || !slices.Equal(a.cells, b.cells) || slices.Equal(a.cells, c.cells) {
			t.Errorf("%s: the same seed must give the same cells and another seed other cells", w)
		}
	}
	for _, s := range []int64{1, 9001} {
		if roundSeed(s, 0) != s || roundSeed(s, roundLists) != s || roundSeed(s, 1) == s ||
			roundSeed(s, 1) == roundSeed(s, 2) || roundSeed(s, 1+roundLists) != roundSeed(s, 1) {
			t.Errorf("seed %d: rounds must cycle through %d distinct lists, starting with the seed's own", s, roundLists)
		}
	}
	sp, _ := buildSpec("figure4-grid", 1, sizes["full"])
	if len(sp.cells) != 30 {
		t.Errorf("figure4-grid has %d cells, want the 30 Figure-4 cells", len(sp.cells))
	}
}

// TestRefClock checks that the reference clock keeps its share of the
// cell time and reports a positive speed.
func TestRefClock(t *testing.T) {
	var r refClock
	if r.speed() != 1 {
		t.Errorf("speed with no quanta = %v, want 1", r.speed())
	}
	r.keepUp(40 * time.Millisecond)
	if r.quanta == 0 || r.busy < 10*time.Millisecond || r.speed() <= 0 {
		t.Errorf("after 40ms of cells: %d quanta, busy %v, speed %v", r.quanta, r.busy, r.speed())
	}
}
