package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runGolden(t *testing.T, goldenName, neu string, maxRegress float64, wantCode int) string {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(&out, &errOut, filepath.Join("testdata", "base.json"),
		filepath.Join("testdata", neu), maxRegress, math.Inf(1))
	if code != wantCode {
		t.Errorf("%s: exit code %d, want %d\nstderr: %s", neu, code, wantCode, errOut.Bytes())
	}
	path := filepath.Join("testdata", goldenName)
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
	}
	return out.String()
}

// TestCleanGolden: a snapshot inside the gate passes, reports the
// Figure-4 geomean, the sweep-strategy summary, and marks new cells.
func TestCleanGolden(t *testing.T) {
	out := runGolden(t, "clean.golden", "clean.json", 0.10, 0)
	for _, want := range []string{
		"Figure4 geomean ratio:",
		"SweepCell pooled/cold:",
		"SweepCell cached/cold:",
		"Figure4/Raytrace/BS", // present only in the candidate
		"benchdiff: ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("clean output missing %q", want)
		}
	}
	if strings.Contains(out, "REGRESSION") {
		t.Error("clean snapshot flagged a regression")
	}
}

// TestRegressedGolden: a guarded cell past -max-regress and a hot path
// that allocates both fail the gate; the unguarded cached cell does not.
func TestRegressedGolden(t *testing.T) {
	out := runGolden(t, "regressed.golden", "regressed.json", 0.10, 1)
	if !strings.Contains(out, "Figure4/BerkeleyDB/BS") || !strings.Contains(out, "REGRESSION") {
		t.Error("25% regression on a guarded cell not flagged")
	}
	if !strings.Contains(out, "ALLOC GATE: EngineSchedule") {
		t.Error("allocating hot path not flagged")
	}
	if !strings.Contains(out, "benchdiff: FAIL") {
		t.Error("failing snapshot not marked FAIL")
	}
	// SweepCell/cached grew 4.5x but is exempt from the gate.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "SweepCell/cached") && strings.Contains(line, "REGRESSION") {
			t.Error("unguarded cached cell flagged as regression")
		}
	}
}

// TestRegressionThreshold: the same snapshot passes when -max-regress
// admits the slowdown (alloc gate aside, so compare against clean).
func TestRegressionThreshold(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(&out, &errOut, filepath.Join("testdata", "base.json"),
		filepath.Join("testdata", "clean.json"), 0.001, math.Inf(1))
	if code != 1 {
		t.Errorf("tight gate: exit %d, want 1 (Mp3d grew 2%%)", code)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Error("tight gate flagged nothing")
	}
}

// TestGeomeanGate: the Figure-4 geomean gate fires on a snapshot whose
// average drift (1.118 in regressed.json) exceeds -max-geomean even
// when the per-cell gate is loosened out of the way, stays quiet when
// loosened itself, and never fires on an overall-faster snapshot
// (clean.json, geomean 0.984).
func TestGeomeanGate(t *testing.T) {
	var out, errOut bytes.Buffer
	base := filepath.Join("testdata", "base.json")
	regressed := filepath.Join("testdata", "regressed.json")
	code := run(&out, &errOut, base, regressed, 10.0, 0.02)
	if code != 1 {
		t.Errorf("tight geomean gate: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "GEOMEAN GATE:") {
		t.Error("tight geomean gate flagged nothing")
	}
	out.Reset()
	run(&out, &errOut, base, regressed, 10.0, 10.0)
	if strings.Contains(out.String(), "GEOMEAN GATE:") {
		t.Error("loose geomean gate fired")
	}
	out.Reset()
	if code := run(&out, &errOut, base, filepath.Join("testdata", "clean.json"), 0.10, 0.02); code != 0 {
		t.Errorf("faster snapshot under the geomean gate: exit %d, want 0", code)
	}
}

func TestBadInputs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, "testdata/no-such.json", "testdata/clean.json", 0.1, math.Inf(1)); code != 2 {
		t.Errorf("missing base: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(&out, &errOut, filepath.Join("testdata", "base.json"), bad, 0.1, math.Inf(1)); code != 2 {
		t.Errorf("corrupt candidate: exit %d, want 2", code)
	}
}

// TestNACKRetrySummary: the retry-layer microbenchmark pair gets a
// memo/walk ratio line, and either row allocating fails the gate.
func TestNACKRetrySummary(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", `{"benchmarks": []}`)
	for _, c := range []struct {
		memoAllocs int
		wantCode   int
	}{{0, 0}, {1, 1}} {
		neu := write("new.json", fmt.Sprintf(`{"benchmarks": [
			{"name": "NACKRetry/walk", "ns_op": 160, "allocs_op": 0},
			{"name": "NACKRetry/memo", "ns_op": 40, "allocs_op": %d}]}`, c.memoAllocs))
		var out, errOut bytes.Buffer
		if code := run(&out, &errOut, base, neu, 0.10, math.Inf(1)); code != c.wantCode {
			t.Errorf("memo allocs %d: exit code %d, want %d\n%s%s", c.memoAllocs, code, c.wantCode, out.Bytes(), errOut.Bytes())
		}
		if !strings.Contains(out.String(), "NACKRetry memo/walk: 0.250 (4.00x per quiet retry)") {
			t.Errorf("missing memo/walk summary:\n%s", out.Bytes())
		}
		if gate := strings.Contains(out.String(), "ALLOC GATE: NACKRetry/memo"); gate != (c.memoAllocs > 0) {
			t.Errorf("memo allocs %d: alloc gate fired = %v", c.memoAllocs, gate)
		}
	}
}
